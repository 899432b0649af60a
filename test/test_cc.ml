(* Tests for the local concurrency-control schemes: per-scheme behaviour,
   the serializability oracle, and randomized workloads through the
   workbench. *)

open Rt_sim
open Rt_types
open Rt_cc
module Kv = Rt_storage.Kv

let txn seq = Ids.Txn_id.make ~origin:0 ~seq ~start_ts:(Time.us seq)

let setup () =
  let kv = Kv.create () in
  Kv.set kv ~key:"a" ~value:"a0" ~version:1;
  Kv.set kv ~key:"b" ~value:"b0" ~version:1;
  kv

(* --- 2PL --------------------------------------------------------------- *)

let test_2pl_read_write_commit () =
  let kv = setup () in
  let st = Two_phase_locking.create kv in
  let t1 = txn 1 in
  Two_phase_locking.begin_txn st t1;
  let read_value = ref None in
  Two_phase_locking.read st ~txn:t1 ~key:"a" ~k:(function
    | `Value v -> read_value := v
    | `Abort -> Alcotest.fail "unexpected abort");
  Alcotest.(check (option string)) "read committed value" (Some "a0") !read_value;
  Two_phase_locking.write st ~txn:t1 ~key:"a" ~value:"a1" ~k:(function
    | `Ok -> ()
    | `Abort -> Alcotest.fail "write refused");
  (* Read-your-writes. *)
  Two_phase_locking.read st ~txn:t1 ~key:"a" ~k:(function
    | `Value v -> Alcotest.(check (option string)) "own write" (Some "a1") v
    | `Abort -> Alcotest.fail "unexpected abort");
  (* Buffered: not visible in the store yet. *)
  Alcotest.(check int) "store unchanged before commit" 1 (Kv.version kv "a");
  Two_phase_locking.commit st ~txn:t1 ~k:(function
    | `Committed -> ()
    | `Aborted -> Alcotest.fail "commit failed");
  Alcotest.(check int) "version bumped" 2 (Kv.version kv "a")

let test_2pl_blocks_then_grants () =
  let kv = setup () in
  let st = Two_phase_locking.create kv in
  let t1 = txn 1 and t2 = txn 2 in
  Two_phase_locking.begin_txn st t1;
  Two_phase_locking.begin_txn st t2;
  Two_phase_locking.write st ~txn:t1 ~key:"a" ~value:"x" ~k:(fun _ -> ());
  let t2_read = ref None in
  Two_phase_locking.read st ~txn:t2 ~key:"a" ~k:(function
    | `Value v -> t2_read := Some v
    | `Abort -> Alcotest.fail "t2 aborted");
  Alcotest.(check bool) "t2 blocked" true (!t2_read = None);
  Two_phase_locking.commit st ~txn:t1 ~k:(fun _ -> ());
  (* Release grants t2; it sees t1's committed value. *)
  Alcotest.(check (option (option string))) "t2 unblocked with new value"
    (Some (Some "x")) !t2_read

let test_2pl_deadlock_victim () =
  let kv = setup () in
  let st = Two_phase_locking.create kv in
  let t1 = txn 1 and t2 = txn 2 in
  Two_phase_locking.begin_txn st t1;
  Two_phase_locking.begin_txn st t2;
  Two_phase_locking.write st ~txn:t1 ~key:"a" ~value:"1" ~k:(fun _ -> ());
  Two_phase_locking.write st ~txn:t2 ~key:"b" ~value:"2" ~k:(fun _ -> ());
  let t1_result = ref `Pending and t2_result = ref `Pending in
  Two_phase_locking.write st ~txn:t1 ~key:"b" ~value:"1" ~k:(function
    | `Ok -> t1_result := `Ok
    | `Abort -> t1_result := `Abort);
  (* Closing the cycle aborts the youngest (t2) immediately. *)
  Two_phase_locking.write st ~txn:t2 ~key:"a" ~value:"2" ~k:(function
    | `Ok -> t2_result := `Ok
    | `Abort -> t2_result := `Abort);
  Alcotest.(check bool) "t2 was victim" true (!t2_result = `Abort);
  Alcotest.(check bool) "t1 got the lock" true (!t1_result = `Ok);
  Alcotest.(check int) "one deadlock abort" 1
    (Two_phase_locking.stats st).deadlock_aborts

(* --- TO ---------------------------------------------------------------- *)

let test_to_rejects_late_read () =
  let kv = setup () in
  let st = Timestamp_order.create kv in
  let old_txn = txn 1 and new_txn = txn 2 in
  Timestamp_order.begin_txn st old_txn;
  Timestamp_order.begin_txn st new_txn;
  (* Newer transaction writes and commits; the older one's read must now
     be rejected (it would read "from the future"). *)
  Timestamp_order.write st ~txn:new_txn ~key:"a" ~value:"new" ~k:(fun _ -> ());
  Timestamp_order.commit st ~txn:new_txn ~k:(fun _ -> ());
  let result = ref `Pending in
  Timestamp_order.read st ~txn:old_txn ~key:"a" ~k:(function
    | `Value _ -> result := `Ok
    | `Abort -> result := `Abort);
  Alcotest.(check bool) "old read rejected" true (!result = `Abort);
  Alcotest.(check int) "order abort counted" 1
    (Timestamp_order.stats st).order_aborts

let test_to_rejects_late_write () =
  let kv = setup () in
  let st = Timestamp_order.create kv in
  let old_txn = txn 1 and new_txn = txn 2 in
  Timestamp_order.begin_txn st old_txn;
  Timestamp_order.begin_txn st new_txn;
  let ok = ref false in
  Timestamp_order.read st ~txn:new_txn ~key:"a" ~k:(function
    | `Value _ -> ok := true
    | `Abort -> ());
  Alcotest.(check bool) "new read fine" true !ok;
  let result = ref `Pending in
  Timestamp_order.write st ~txn:old_txn ~key:"a" ~value:"old" ~k:(function
    | `Ok -> result := `Ok
    | `Abort -> result := `Abort);
  Alcotest.(check bool) "old write after newer read rejected" true
    (!result = `Abort)

let test_to_thomas_write_rule () =
  let kv = setup () in
  let st = Timestamp_order.create kv in
  let t1 = txn 1 and t2 = txn 2 in
  Timestamp_order.begin_txn st t1;
  Timestamp_order.begin_txn st t2;
  Timestamp_order.write st ~txn:t1 ~key:"a" ~value:"t1" ~k:(fun _ -> ());
  Timestamp_order.write st ~txn:t2 ~key:"a" ~value:"t2" ~k:(fun _ -> ());
  (* Newer commits first... *)
  Timestamp_order.commit st ~txn:t2 ~k:(fun _ -> ());
  (* ...then the older commit's write is skipped, not applied backwards. *)
  Timestamp_order.commit st ~txn:t1 ~k:(function
    | `Committed -> ()
    | `Aborted -> Alcotest.fail "TWR commit should succeed");
  Alcotest.(check (option string)) "newest value retained" (Some "t2")
    (Option.map (fun (i : Kv.item) -> i.value) (Kv.get kv "a"))

(* --- TO rules shared with the replicas (Stamps) -------------------------- *)

let stamp = Ids.Txn_id.to_string

let test_stamps_pending_writer_order () =
  let st = Stamps.create () in
  let older = txn 1 and writer = txn 2 and younger = txn 3 in
  Alcotest.(check bool) "write admitted" true (Stamps.write st ~txn:writer ~key:"a");
  (* The younger read would have to see the pending value: refused. *)
  Alcotest.(check bool) "older pending writer refuses younger read" false
    (Stamps.read st ~txn:younger ~key:"a");
  (* The older read precedes the write in timestamp order: admitted. *)
  Alcotest.(check bool) "younger pending writer admits older read" true
    (Stamps.read st ~txn:older ~key:"a");
  Alcotest.(check bool) "own pending write does not block" true
    (Stamps.read st ~txn:writer ~key:"a");
  Alcotest.(check string) "read stamp raised to the writer"
    (Printf.sprintf "a{r=%s;w=-;p=%s};" (stamp writer) (stamp writer))
    (Stamps.dump st)

let test_stamps_release_clears_pending () =
  let st = Stamps.create () in
  let writer = txn 1 and reader = txn 2 in
  ignore (Stamps.write st ~txn:writer ~key:"b");
  ignore (Stamps.write st ~txn:writer ~key:"a");
  ignore (Stamps.write st ~txn:writer ~key:"a");
  Alcotest.(check (list string)) "marks held" [ "a"; "b" ]
    (Stamps.pending_keys st ~txn:writer);
  Stamps.release st ~txn:writer;
  Alcotest.(check (list string)) "marks cleared" []
    (Stamps.pending_keys st ~txn:writer);
  Alcotest.(check string) "no pending writers left" "a{r=-;w=-;p=};b{r=-;w=-;p=};"
    (Stamps.dump st);
  Alcotest.(check bool) "younger read admitted after release" true
    (Stamps.read st ~txn:reader ~key:"a")

let test_stamps_thomas_install () =
  let st = Stamps.create () in
  let t1 = txn 1 and t2 = txn 2 in
  Alcotest.(check bool) "newer install applies" true
    (Stamps.install st ~txn:t2 ~key:"a");
  Alcotest.(check bool) "older install skipped" false
    (Stamps.install st ~txn:t1 ~key:"a");
  Alcotest.(check string) "write stamp untouched"
    (Printf.sprintf "a{r=-;w=%s;p=};" (stamp t2))
    (Stamps.dump st);
  Alcotest.(check bool) "older write refused" false
    (Stamps.write st ~txn:t1 ~key:"a");
  Alcotest.(check bool) "older read refused" false
    (Stamps.read st ~txn:t1 ~key:"a")

(* --- OCC --------------------------------------------------------------- *)

let test_occ_validation_failure () =
  let kv = setup () in
  let st = Occ.create kv in
  let t1 = txn 1 and t2 = txn 2 in
  Occ.begin_txn st t1;
  Occ.begin_txn st t2;
  Occ.read st ~txn:t1 ~key:"a" ~k:(fun _ -> ());
  Occ.read st ~txn:t2 ~key:"a" ~k:(fun _ -> ());
  Occ.write st ~txn:t1 ~key:"a" ~value:"t1" ~k:(fun _ -> ());
  Occ.write st ~txn:t2 ~key:"a" ~value:"t2" ~k:(fun _ -> ());
  let r1 = ref `Pending and r2 = ref `Pending in
  Occ.commit st ~txn:t1 ~k:(fun o -> r1 := (o :> [ `Committed | `Aborted | `Pending ]));
  Occ.commit st ~txn:t2 ~k:(fun o -> r2 := (o :> [ `Committed | `Aborted | `Pending ]));
  Alcotest.(check bool) "first committer wins" true (!r1 = `Committed);
  Alcotest.(check bool) "second validation fails" true (!r2 = `Aborted);
  Alcotest.(check int) "validation abort counted" 1
    (Occ.stats st).validation_aborts

let test_occ_disjoint_commits () =
  let kv = setup () in
  let st = Occ.create kv in
  let t1 = txn 1 and t2 = txn 2 in
  Occ.begin_txn st t1;
  Occ.begin_txn st t2;
  Occ.write st ~txn:t1 ~key:"a" ~value:"1" ~k:(fun _ -> ());
  Occ.write st ~txn:t2 ~key:"b" ~value:"2" ~k:(fun _ -> ());
  let ok = ref 0 in
  Occ.commit st ~txn:t1 ~k:(function `Committed -> incr ok | _ -> ());
  Occ.commit st ~txn:t2 ~k:(function `Committed -> incr ok | _ -> ());
  Alcotest.(check int) "both committed" 2 !ok

(* --- History oracle ----------------------------------------------------- *)

let test_history_detects_nonserializable () =
  let h = History.create () in
  let t1 = txn 1 and t2 = txn 2 in
  (* Classic lost-update cycle: each reads version 1 then overwrites the
     other's write. *)
  History.read h t1 ~key:"a" ~version:1;
  History.read h t2 ~key:"a" ~version:1;
  History.write h t1 ~key:"a" ~version:2;
  History.write h t2 ~key:"a" ~version:3;
  History.commit h t1;
  History.commit h t2;
  Alcotest.(check bool) "cycle detected" false (History.serializable h)

let test_history_serial_ok () =
  let h = History.create () in
  let t1 = txn 1 and t2 = txn 2 in
  History.read h t1 ~key:"a" ~version:1;
  History.write h t1 ~key:"a" ~version:2;
  History.commit h t1;
  History.read h t2 ~key:"a" ~version:2;
  History.write h t2 ~key:"a" ~version:3;
  History.commit h t2;
  Alcotest.(check bool) "serial history fine" true (History.serializable h)

let test_history_ignores_aborted () =
  let h = History.create () in
  let t1 = txn 1 and t2 = txn 2 in
  History.read h t1 ~key:"a" ~version:1;
  History.read h t2 ~key:"a" ~version:1;
  History.write h t1 ~key:"a" ~version:2;
  History.write h t2 ~key:"a" ~version:3;
  History.commit h t1;
  History.abort h t2;
  Alcotest.(check bool) "aborted txn not part of graph" true
    (History.serializable h)

(* --- Workbench: every scheme is serializable under random load ---------- *)

let workbench_case scheme =
  Alcotest.test_case
    (Printf.sprintf "%s: random workload is serializable"
       (Workbench.scheme_name scheme))
    `Quick
    (fun () ->
      let mix =
        { Rt_workload.Mix.default with keys = 20; ops_per_txn = 3;
          read_fraction = 0.5; theta = 0.9 }
      in
      let r =
        Workbench.run ~seed:42 ~check_history:true ~scheme ~clients:8 ~mix
          ~duration:(Time.ms 15) ()
      in
      Alcotest.(check bool) "made progress" true (r.committed > 10);
      Alcotest.(check (option bool)) "serializable" (Some true) r.serializable)

let prop_schemes_serializable =
  QCheck.Test.make ~name:"all schemes serializable across seeds" ~count:8
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, clients) ->
      List.for_all
        (fun scheme ->
          let mix =
            { Rt_workload.Mix.default with keys = 10; ops_per_txn = 3;
              theta = 1.0 }
          in
          let r =
            Workbench.run ~seed ~check_history:true ~scheme ~clients ~mix
              ~duration:(Time.ms 8) ()
          in
          r.serializable = Some true)
        Workbench.all_schemes)

let test_contention_hurts_occ_and_to () =
  (* Under high skew, the restart-based schemes abort much more than they
     do under uniform access — the shape experiment T6/F3 reports. *)
  let base = { Rt_workload.Mix.default with keys = 100; ops_per_txn = 4 } in
  let run scheme theta =
    (Workbench.run ~seed:7 ~scheme ~clients:8
       ~mix:{ base with theta } ~duration:(Time.ms 40) ())
      .abort_rate
  in
  List.iter
    (fun scheme ->
      let uniform = run scheme 0.0 and hot = run scheme 1.2 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: skew increases aborts"
           (Workbench.scheme_name scheme))
        true
        (hot >= uniform))
    [ Workbench.Timestamp; Workbench.Optimistic ]


(* --- deadlock prevention policies -------------------------------------- *)

let test_wound_wait_older_wounds () =
  let kv = setup () in
  let st = Two_phase_locking.create_with_policy ~policy:`Wound_wait kv in
  let old_t = txn 1 and young_t = txn 2 in
  Two_phase_locking.begin_txn st young_t;
  Two_phase_locking.begin_txn st old_t;
  (* Young holds the lock... *)
  Two_phase_locking.write st ~txn:young_t ~key:"a" ~value:"y" ~k:(fun _ -> ());
  (* ...old wants it: young is wounded and old proceeds. *)
  let old_result = ref `Pending in
  Two_phase_locking.write st ~txn:old_t ~key:"a" ~value:"o" ~k:(function
    | `Ok -> old_result := `Ok
    | `Abort -> old_result := `Abort);
  Alcotest.(check bool) "old got the lock" true (!old_result = `Ok);
  Alcotest.(check int) "young was wounded" 1
    (Two_phase_locking.stats st).deadlock_aborts;
  (* The wounded transaction is gone; its commit reports aborted. *)
  Two_phase_locking.commit st ~txn:young_t ~k:(function
    | `Aborted -> ()
    | `Committed -> Alcotest.fail "wounded txn must not commit")

let test_wound_wait_younger_waits () =
  let kv = setup () in
  let st = Two_phase_locking.create_with_policy ~policy:`Wound_wait kv in
  let old_t = txn 1 and young_t = txn 2 in
  Two_phase_locking.begin_txn st old_t;
  Two_phase_locking.begin_txn st young_t;
  Two_phase_locking.write st ~txn:old_t ~key:"a" ~value:"o" ~k:(fun _ -> ());
  let young_result = ref `Pending in
  Two_phase_locking.write st ~txn:young_t ~key:"a" ~value:"y" ~k:(function
    | `Ok -> young_result := `Ok
    | `Abort -> young_result := `Abort);
  Alcotest.(check bool) "young waits (not aborted)" true
    (!young_result = `Pending);
  Two_phase_locking.commit st ~txn:old_t ~k:(fun _ -> ());
  Alcotest.(check bool) "young granted after release" true
    (!young_result = `Ok)

let test_wait_die_younger_dies () =
  let kv = setup () in
  let st = Two_phase_locking.create_with_policy ~policy:`Wait_die kv in
  let old_t = txn 1 and young_t = txn 2 in
  Two_phase_locking.begin_txn st old_t;
  Two_phase_locking.begin_txn st young_t;
  Two_phase_locking.write st ~txn:old_t ~key:"a" ~value:"o" ~k:(fun _ -> ());
  let young_result = ref `Pending in
  Two_phase_locking.write st ~txn:young_t ~key:"a" ~value:"y" ~k:(function
    | `Ok -> young_result := `Ok
    | `Abort -> young_result := `Abort);
  Alcotest.(check bool) "young dies immediately" true
    (!young_result = `Abort)

let test_wait_die_older_waits () =
  let kv = setup () in
  let st = Two_phase_locking.create_with_policy ~policy:`Wait_die kv in
  let old_t = txn 1 and young_t = txn 2 in
  Two_phase_locking.begin_txn st young_t;
  Two_phase_locking.begin_txn st old_t;
  Two_phase_locking.write st ~txn:young_t ~key:"a" ~value:"y" ~k:(fun _ -> ());
  let old_result = ref `Pending in
  Two_phase_locking.write st ~txn:old_t ~key:"a" ~value:"o" ~k:(function
    | `Ok -> old_result := `Ok
    | `Abort -> old_result := `Abort);
  Alcotest.(check bool) "old waits" true (!old_result = `Pending);
  Two_phase_locking.commit st ~txn:young_t ~k:(fun _ -> ());
  Alcotest.(check bool) "old granted after young commits" true
    (!old_result = `Ok)

let prop_prevention_policies_serializable =
  QCheck.Test.make
    ~name:"wound-wait and wait-die stay serializable and deadlock-free"
    ~count:10
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, clients) ->
      List.for_all
        (fun scheme ->
          let mix =
            { Rt_workload.Mix.default with keys = 10; ops_per_txn = 3;
              theta = 1.0; read_fraction = 0.3 }
          in
          let r =
            Workbench.run ~seed ~check_history:true ~scheme ~clients ~mix
              ~duration:(Time.ms 8) ()
          in
          r.serializable = Some true && r.committed > 0)
        [ Workbench.Two_pl_wound_wait; Workbench.Two_pl_wait_die ])

let () =
  Alcotest.run "cc"
    [
      ( "2pl",
        [
          Alcotest.test_case "read/write/commit" `Quick
            test_2pl_read_write_commit;
          Alcotest.test_case "blocks then grants" `Quick
            test_2pl_blocks_then_grants;
          Alcotest.test_case "deadlock victim" `Quick test_2pl_deadlock_victim;
        ] );
      ( "to",
        [
          Alcotest.test_case "rejects late read" `Quick test_to_rejects_late_read;
          Alcotest.test_case "rejects late write" `Quick
            test_to_rejects_late_write;
          Alcotest.test_case "thomas write rule" `Quick
            test_to_thomas_write_rule;
        ] );
      ( "stamps",
        [
          Alcotest.test_case "pending writer order" `Quick
            test_stamps_pending_writer_order;
          Alcotest.test_case "release clears pending" `Quick
            test_stamps_release_clears_pending;
          Alcotest.test_case "thomas install" `Quick test_stamps_thomas_install;
        ] );
      ( "occ",
        [
          Alcotest.test_case "validation failure" `Quick
            test_occ_validation_failure;
          Alcotest.test_case "disjoint commits" `Quick test_occ_disjoint_commits;
        ] );
      ( "history",
        [
          Alcotest.test_case "detects non-serializable" `Quick
            test_history_detects_nonserializable;
          Alcotest.test_case "serial ok" `Quick test_history_serial_ok;
          Alcotest.test_case "ignores aborted" `Quick
            test_history_ignores_aborted;
        ] );
      ( "prevention",
        [
          Alcotest.test_case "wound-wait: older wounds" `Quick
            test_wound_wait_older_wounds;
          Alcotest.test_case "wound-wait: younger waits" `Quick
            test_wound_wait_younger_waits;
          Alcotest.test_case "wait-die: younger dies" `Quick
            test_wait_die_younger_dies;
          Alcotest.test_case "wait-die: older waits" `Quick
            test_wait_die_older_waits;
          QCheck_alcotest.to_alcotest prop_prevention_policies_serializable;
        ] );
      ( "workbench",
        List.map workbench_case Workbench.all_schemes
        @ [
            QCheck_alcotest.to_alcotest prop_schemes_serializable;
            Alcotest.test_case "skew increases aborts" `Quick
              test_contention_hurts_occ_and_to;
          ] );
    ]
