(* Tests for the lock manager: compatibility, FIFO fairness, upgrades,
   release/promotion, wait-for graphs, and deadlock detection. *)

open Rt_sim
open Rt_types
open Rt_lock

let txn seq = Ids.Txn_id.make ~origin:0 ~seq ~start_ts:(Time.ms seq)
let tid = Alcotest.testable Ids.Txn_id.pp Ids.Txn_id.equal

let granted = ref []
let on_grant name () = granted := name :: !granted
let reset () = granted := []

let check_outcome = Alcotest.(check bool)

let test_shared_compatible () =
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  check_outcome "a S granted" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(on_grant "a")
     = Granted);
  check_outcome "b S granted" true
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(on_grant "b")
     = Granted);
  Alcotest.(check int) "two holders" 2
    (List.length (Lock_table.holders t ~key:"k"))

let test_exclusive_conflicts () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  check_outcome "a X granted" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive
       ~on_grant:(on_grant "a")
     = Granted);
  check_outcome "b S waits" true
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(on_grant "b")
     = Waiting);
  Alcotest.(check bool) "b is waiting" true (Lock_table.is_waiting t ~txn:b);
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "b granted on release" [ "b" ] !granted;
  Alcotest.(check bool) "b no longer waiting" false
    (Lock_table.is_waiting t ~txn:b)

let test_reentrant () =
  let t = Lock_table.create () in
  let a = txn 1 in
  ignore
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () ->
         ()));
  check_outcome "re-acquire X" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () ->
         Alcotest.fail "no callback")
     = Granted);
  check_outcome "S while holding X" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () ->
         Alcotest.fail "no callback")
     = Granted)

let test_upgrade_sole_holder () =
  let t = Lock_table.create () in
  let a = txn 1 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  check_outcome "upgrade granted" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () ->
         Alcotest.fail "sync grant expected")
     = Granted);
  Alcotest.(check bool) "holds X" true
    (Lock_table.holds t ~txn:a ~key:"k" = Some Exclusive)

let test_upgrade_waits_for_other_reader () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  check_outcome "upgrade waits" true
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive
       ~on_grant:(on_grant "a-upgrade")
     = Waiting);
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (list string)) "upgrade granted after reader left"
    [ "a-upgrade" ] !granted;
  Alcotest.(check bool) "holds X now" true
    (Lock_table.holds t ~txn:a ~key:"k" = Some Exclusive)

let test_upgrade_jumps_queue () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and c = txn 3 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  (* c wants X and queues; then a upgrades: the upgrade must be served
     before c, otherwise a and c deadlock behind each other. *)
  ignore
    (Lock_table.acquire t ~txn:c ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "c"));
  ignore
    (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive
       ~on_grant:(on_grant "a"));
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (list string)) "upgrade first" [ "a" ] !granted;
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "then c" [ "c"; "a" ] !granted

let test_fifo_no_starvation () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and c = txn 3 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  (* b queues for X; a later S request from c must NOT overtake b. *)
  ignore
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "b"));
  check_outcome "late S waits behind X" true
    (Lock_table.acquire t ~txn:c ~key:"k" ~mode:Shared ~on_grant:(on_grant "c")
     = Waiting);
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "b served first" [ "b" ] !granted;
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (list string)) "then c" [ "c"; "b" ] !granted

let test_batch_shared_grant () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and c = txn 3 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(on_grant "b"));
  ignore (Lock_table.acquire t ~txn:c ~key:"k" ~mode:Shared ~on_grant:(on_grant "c"));
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "both readers granted together" [ "c"; "b" ]
    !granted

let test_release_removes_queued_requests () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "b"));
  (* b aborts while waiting. *)
  Lock_table.release_all t ~txn:b;
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "b never granted" [] !granted;
  Alcotest.(check int) "table empty" 0 (Lock_table.locked_keys t)

(* Regression: cancelling a queued request must unblock compatible
   waiters queued behind it, even though no lock was held or released. *)
let test_cancel_waiter_unblocks_queue () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and c = txn 3 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  (* b queues for X behind a's S; c queues for S behind b. *)
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "b"));
  ignore (Lock_table.acquire t ~txn:c ~key:"k" ~mode:Shared ~on_grant:(on_grant "c"));
  (* b aborts while holding nothing: c is now compatible with a and must
     be granted immediately. *)
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (list string)) "c granted when blocker cancelled" [ "c" ]
    !granted

(* Regression (found by the nemesis lossy campaign): the same operation
   delivered twice queues two requests for one txn.  Granting the first
   used to wipe every waits-index entry for the key, so the second
   request survived release_all invisibly and was re-granted to the
   already-dead transaction during its own release — a permanent leak. *)
let test_duplicate_queued_request_no_leak () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "b1"));
  ignore
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "b2"));
  Lock_table.release_all t ~txn:a;
  (* Both copies are granted (idempotent for one txn), one holder entry. *)
  Alcotest.(check (list string)) "both callbacks fired" [ "b2"; "b1" ] !granted;
  Alcotest.(check int) "single holder entry" 1
    (List.length (Lock_table.holders t ~key:"k"));
  Lock_table.release_all t ~txn:b;
  Alcotest.(check int) "no leak after release" 0 (Lock_table.locked_keys t)

(* An S and an X request from one txn queued together must coalesce into
   a single exclusive hold, not a mixed holder list or a self-deadlock. *)
let test_queued_s_then_x_same_txn_coalesces () =
  reset ();
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(on_grant "bs"));
  ignore
    (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(on_grant "bx"));
  Lock_table.release_all t ~txn:a;
  Alcotest.(check (list string)) "both granted in order" [ "bx"; "bs" ] !granted;
  Alcotest.(check bool) "holds X" true
    (Lock_table.holds t ~txn:b ~key:"k" = Some Exclusive);
  Alcotest.(check int) "single holder entry" 1
    (List.length (Lock_table.holders t ~key:"k"));
  Lock_table.release_all t ~txn:b;
  Alcotest.(check int) "no leak after release" 0 (Lock_table.locked_keys t)

let test_held_keys () =
  let t = Lock_table.create () in
  let a = txn 1 in
  ignore (Lock_table.acquire t ~txn:a ~key:"x" ~mode:Shared ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:a ~key:"y" ~mode:Exclusive ~on_grant:(fun () -> ()));
  Alcotest.(check (list string)) "held keys" [ "x"; "y" ]
    (Lock_table.held_keys t ~txn:a)

(* --- deadlock detection --------------------------------------------- *)

let test_deadlock_cycle_detected () =
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"x" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"y" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:a ~key:"y" ~mode:Exclusive ~on_grant:(fun () -> ()));
  Alcotest.(check (option tid)) "no deadlock yet" None
    (Lock_table.detect_deadlock t);
  ignore (Lock_table.acquire t ~txn:b ~key:"x" ~mode:Exclusive ~on_grant:(fun () -> ()));
  (match Lock_table.detect_deadlock t with
  | Some victim ->
      (* Youngest = b (started later). *)
      Alcotest.(check tid) "youngest is victim" b victim
  | None -> Alcotest.fail "deadlock not detected");
  (* Aborting the victim unblocks the system. *)
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (option tid)) "resolved" None (Lock_table.detect_deadlock t)

let test_deadlock_victim_policy () =
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"x" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"y" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:a ~key:"y" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"x" ~mode:Exclusive ~on_grant:(fun () -> ()));
  (match Lock_table.detect_deadlock ~policy:`Oldest t with
  | Some victim -> Alcotest.(check tid) "oldest policy" a victim
  | None -> Alcotest.fail "deadlock not detected")

let test_upgrade_deadlock () =
  (* Two readers that both try to upgrade deadlock with each other. *)
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 in
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Shared ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:a ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  ignore (Lock_table.acquire t ~txn:b ~key:"k" ~mode:Exclusive ~on_grant:(fun () -> ()));
  match Lock_table.detect_deadlock t with
  | Some _ -> ()
  | None -> Alcotest.fail "upgrade-upgrade deadlock not detected"

(* The scoped check must agree with a search of the whole graph. *)
let reference ?policy t =
  Wfg.find_cycle (Lock_table.wait_for_graph t) |> Option.map (Wfg.victim ?policy)

let acq t tx key mode =
  Lock_table.acquire t ~txn:tx ~key ~mode ~on_grant:(fun () -> ())

(* Two readers upgrade in turn, with a clean check in between.  The
   second upgrade queues at the front and waits for the other reader,
   whose queued upgrade waits for it in turn (behind its shared hold and
   now behind its upgrade too): the cycle closes through that edge into
   the upgrader, and only the upgrade's own dirty mark brings it into
   scope.  The writer queued behind also gains an edge into the upgrader
   but is not on the cycle. *)
let test_upgrade_front_closes_cycle () =
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and w = txn 3 in
  ignore (acq t a "k" Shared);
  ignore (acq t b "k" Shared);
  check_outcome "b upgrade waits" true (acq t b "k" Exclusive = Waiting);
  check_outcome "w queues behind" true (acq t w "k" Exclusive = Waiting);
  Alcotest.(check (option tid)) "no cycle yet" None
    (Lock_table.detect_deadlock t);
  Alcotest.(check int) "clean check empties the dirty set" 0
    (Lock_table.unchecked_waiters t);
  check_outcome "a upgrade waits" true (acq t a "k" Exclusive = Waiting);
  Alcotest.(check (list tid)) "a's upgrade jumped to the front" [ a; b; w ]
    (List.map fst (Lock_table.waiters t ~key:"k"));
  Alcotest.(check (option tid)) "same victim as the full graph"
    (reference t) (Lock_table.detect_deadlock t);
  Alcotest.(check (option tid)) "youngest of the upgraders" (Some b)
    (Lock_table.detect_deadlock t);
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (option tid)) "resolved" None (Lock_table.detect_deadlock t)

(* A cycle closed by an early waiter is still found when the check runs
   only after several later waits that are not on the cycle (callers
   such as bench's [lock_cycle] check once per batch of requests). *)
let test_cycle_found_after_unchecked_waits () =
  let t = Lock_table.create () in
  let a = txn 1 and b = txn 2 and c = txn 3 and d = txn 4 in
  ignore (acq t a "x" Exclusive);
  ignore (acq t b "y" Exclusive);
  ignore (acq t c "z" Exclusive);
  ignore (acq t a "y" Exclusive);
  ignore (acq t b "x" Exclusive);
  ignore (acq t d "z" Shared);
  ignore (acq t d "x" Shared);
  Alcotest.(check int) "three unchecked waiters" 3
    (Lock_table.unchecked_waiters t);
  Alcotest.(check (option tid)) "found by one check" (Some b)
    (Lock_table.detect_deadlock t);
  Alcotest.(check int) "a cycle keeps the set" 3
    (Lock_table.unchecked_waiters t);
  Lock_table.release_all t ~txn:b;
  Alcotest.(check (option tid)) "resolved" None (Lock_table.detect_deadlock t);
  Alcotest.(check int) "then emptied" 0 (Lock_table.unchecked_waiters t)

type op = Acq of int * int * Lock_table.mode | Release of int

let pp_op = function
  | Acq (ti, k, m) ->
      Printf.sprintf "%d:%s%d" ti
        (match m with Lock_table.Shared -> "S" | Exclusive -> "X")
        k
  | Release ti -> Printf.sprintf "%d:rel" ti

(* Up to 6 transactions on up to 4 keys.  Repeated requests from one
   transaction give upgrades, duplicates and mixed S/X pairs queued on
   one key. *)
let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun ti k m -> Acq (ti, k, m))
            (int_range 1 6) (int_range 0 3)
            (oneofl [ Lock_table.Shared; Exclusive ]) );
        (1, map (fun ti -> Release ti) (int_range 1 6));
      ])

let apply t = function
  | Acq (ti, k, mode) -> acq t (txn ti) (Printf.sprintf "k%d" k) mode = Waiting
  | Release ti ->
      Lock_table.release_all t ~txn:(txn ti);
      false

(* Differential check against the full-graph search.  Each step is
   followed, when [checked], by the comparison under both victim
   policies and then by the resolution loop of a site (abort the victim,
   check again); unchecked steps let waits pile up in the dirty set. *)
let differential ~name ~checked_only =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (pair gen_op (if checked_only then return true else bool)))
  in
  QCheck.Test.make ~name ~count:500
    (QCheck.make gen ~print:(fun ops ->
         String.concat " "
           (List.map
              (fun (op, checked) -> pp_op op ^ if checked then "" else "?")
              ops)))
    (fun ops ->
      let t = Lock_table.create () in
      let agrees () =
        List.for_all
          (fun policy ->
            Lock_table.detect_deadlock ~policy t = reference ~policy t)
          [ `Youngest; `Oldest ]
      in
      let rec resolve n =
        if n > 10 then false
        else
          agrees ()
          &&
          match Lock_table.detect_deadlock t with
          | None -> true
          | Some victim ->
              Lock_table.release_all t ~txn:victim;
              resolve (n + 1)
      in
      List.for_all
        (fun (op, checked) ->
          let waited = apply t op in
          (not checked) || (agrees () && ((not waited) || resolve 0)))
        ops)

let prop_detect_matches_reference_every_step =
  differential ~name:"scoped detection = full graph, every step"
    ~checked_only:true

let prop_detect_matches_reference_unchecked_waits =
  differential ~name:"scoped detection = full graph, unchecked waits"
    ~checked_only:false

(* Wound-wait never calls [detect_deadlock]: an older requester aborts
   younger blockers, a younger one waits.  The graph stays acyclic, and
   the dirty set holds only transactions that still hold or wait. *)
let prop_wound_wait_no_cycle_no_leak =
  let gen = QCheck.Gen.(list_size (int_range 1 60) gen_op) in
  QCheck.Test.make ~name:"wound-wait: no cycle, dirty set bounded" ~count:300
    (QCheck.make gen ~print:(fun ops -> String.concat " " (List.map pp_op ops)))
    (fun ops ->
      let t = Lock_table.create () in
      let live = Ids.Txn_map.create 8 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Acq (ti, k, mode) ->
              let key = Printf.sprintf "k%d" k and tx = txn ti in
              let blockers =
                List.filter_map
                  (fun (h, m) ->
                    if
                      (not (Ids.Txn_id.equal h tx))
                      && (mode = Lock_table.Exclusive || m = Lock_table.Exclusive)
                    then Some h
                    else None)
                  (Lock_table.holders t ~key)
                @ List.map fst (Lock_table.waiters t ~key)
              in
              List.iter
                (fun other ->
                  if Ids.Txn_id.older tx other then begin
                    Lock_table.release_all t ~txn:other;
                    Ids.Txn_map.remove live other
                  end)
                blockers;
              Ids.Txn_map.replace live tx ();
              ignore (apply t op)
          | Release ti ->
              Ids.Txn_map.remove live (txn ti);
              ignore (apply t op));
          if reference t <> None then ok := false;
          if Lock_table.unchecked_waiters t > Ids.Txn_map.length live then
            ok := false)
        ops;
      if Lock_table.detect_deadlock t <> None then ok := false;
      for ti = 1 to 6 do
        Lock_table.release_all t ~txn:(txn ti)
      done;
      !ok
      && Lock_table.unchecked_waiters t = 0
      && Lock_table.locked_keys t = 0)

(* --- Wfg primitives --------------------------------------------------- *)

let test_wfg_cycle () =
  let a = txn 1 and b = txn 2 and c = txn 3 in
  let g = Wfg.of_edges [ (a, b); (b, c) ] in
  Alcotest.(check bool) "acyclic" true (Wfg.find_cycle g = None);
  Wfg.add_edge g c a;
  (match Wfg.find_cycle g with
  | Some cycle -> Alcotest.(check int) "cycle length" 3 (List.length cycle)
  | None -> Alcotest.fail "cycle expected");
  Alcotest.(check tid) "youngest victim" c
    (Wfg.victim [ a; b; c ]);
  Alcotest.(check tid) "oldest victim" a
    (Wfg.victim ~policy:`Oldest [ a; b; c ])

let test_wfg_self_edges_ignored () =
  let a = txn 1 in
  let g = Wfg.of_edges [ (a, a) ] in
  Alcotest.(check bool) "self edge no cycle" true (Wfg.find_cycle g = None)

let prop_wfg_cycle_detection_matches_reachability =
  let gen =
    QCheck.Gen.(small_list (pair (int_range 0 6) (int_range 0 6)))
  in
  QCheck.Test.make ~name:"wfg cycle detection is sound+complete" ~count:300
    (QCheck.make gen ~print:(fun edges ->
         String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges)))
    (fun int_edges ->
      let node i = txn (i + 1) in
      let edges = List.map (fun (a, b) -> (node a, node b)) int_edges in
      let g = Wfg.of_edges edges in
      (* Reference: Floyd-Warshall style reachability over non-self edges. *)
      let n = 7 in
      let reach = Array.make_matrix n n false in
      List.iter (fun (a, b) -> if a <> b then reach.(a).(b) <- true) int_edges;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
          done
        done
      done;
      let has_cycle = ref false in
      for i = 0 to n - 1 do
        if reach.(i).(i) then has_cycle := true
      done;
      (Wfg.find_cycle g <> None) = !has_cycle)

(* Randomized lock workload: invariants hold at every step. *)
let prop_lock_invariants =
  let gen =
    QCheck.Gen.(
      small_list
        (triple (int_range 1 5) (int_range 0 3) (oneofl [ `S; `X; `Release ])))
  in
  QCheck.Test.make ~name:"lock table invariants under random workloads"
    ~count:300
    (QCheck.make gen)
    (fun ops ->
      let t = Lock_table.create () in
      let key k = Printf.sprintf "k%d" k in
      let ok = ref true in
      List.iter
        (fun (ti, ki, op) ->
          let tx = txn ti in
          (match op with
          | `S ->
              ignore
                (Lock_table.acquire t ~txn:tx ~key:(key ki) ~mode:Shared
                   ~on_grant:(fun () -> ()))
          | `X ->
              ignore
                (Lock_table.acquire t ~txn:tx ~key:(key ki) ~mode:Exclusive
                   ~on_grant:(fun () -> ()))
          | `Release -> Lock_table.release_all t ~txn:tx);
          (* Invariant: a key's holders are one X or all S. *)
          for k = 0 to 3 do
            let holders = Lock_table.holders t ~key:(key k) in
            let xs =
              List.filter (fun (_, m) -> m = Lock_table.Exclusive) holders
            in
            if List.length xs > 1 then ok := false;
            if List.length xs = 1 && List.length holders > 1 then ok := false
          done)
        ops;
      !ok)

let () =
  Alcotest.run "lock"
    [
      ( "grants",
        [
          Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
          Alcotest.test_case "exclusive conflicts" `Quick
            test_exclusive_conflicts;
          Alcotest.test_case "reentrant" `Quick test_reentrant;
          Alcotest.test_case "batch shared grant" `Quick test_batch_shared_grant;
          Alcotest.test_case "held keys" `Quick test_held_keys;
        ] );
      ( "upgrades",
        [
          Alcotest.test_case "sole holder" `Quick test_upgrade_sole_holder;
          Alcotest.test_case "waits for reader" `Quick
            test_upgrade_waits_for_other_reader;
          Alcotest.test_case "jumps queue" `Quick test_upgrade_jumps_queue;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "fifo no starvation" `Quick test_fifo_no_starvation;
          Alcotest.test_case "release removes queued" `Quick
            test_release_removes_queued_requests;
          Alcotest.test_case "cancelled waiter unblocks queue" `Quick
            test_cancel_waiter_unblocks_queue;
          Alcotest.test_case "duplicate queued request no leak" `Quick
            test_duplicate_queued_request_no_leak;
          Alcotest.test_case "queued S then X coalesces" `Quick
            test_queued_s_then_x_same_txn_coalesces;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "cycle detected" `Quick test_deadlock_cycle_detected;
          Alcotest.test_case "victim policy" `Quick test_deadlock_victim_policy;
          Alcotest.test_case "upgrade deadlock" `Quick test_upgrade_deadlock;
          Alcotest.test_case "upgrade at front closes cycle" `Quick
            test_upgrade_front_closes_cycle;
          Alcotest.test_case "cycle found after unchecked waits" `Quick
            test_cycle_found_after_unchecked_waits;
          QCheck_alcotest.to_alcotest prop_detect_matches_reference_every_step;
          QCheck_alcotest.to_alcotest
            prop_detect_matches_reference_unchecked_waits;
          QCheck_alcotest.to_alcotest prop_wound_wait_no_cycle_no_leak;
          Alcotest.test_case "wfg cycle" `Quick test_wfg_cycle;
          Alcotest.test_case "wfg self edges" `Quick test_wfg_self_edges_ignored;
          QCheck_alcotest.to_alcotest
            prop_wfg_cycle_detection_matches_reachability;
          QCheck_alcotest.to_alcotest prop_lock_invariants;
        ] );
    ]
