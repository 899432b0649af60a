(* Tests for the discrete-event engine: clock semantics, ordering,
   cancellation, the explorer primitives, a differential check of the
   event queue against a sorted-list model, determinism of the RNG, and
   heap behaviour. *)

open Rt_sim

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Time.ms 1);
  Alcotest.(check int) "sec" 1_000_000_000 (Time.sec 1);
  Alcotest.(check int) "of_float_s" 1_500_000_000 (Time.of_float_s 1.5);
  Alcotest.(check (float 1e-9)) "to_float_s" 0.5 (Time.to_float_s (Time.ms 500))

let test_events_fire_in_time_order () =
  let e = Engine.create () in
  let order = ref [] in
  let tag name () = order := name :: !order in
  ignore (Engine.schedule_after e (Time.ms 30) (tag "c"));
  ignore (Engine.schedule_after e (Time.ms 10) (tag "a"));
  ignore (Engine.schedule_after e (Time.ms 20) (tag "b"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !order)

let test_same_instant_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 0 to 9 do
    ignore
      (Engine.schedule_after e (Time.ms 5) (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at same instant"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.schedule_after e (Time.ms 7) (fun () -> seen := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "clock at event time" (Time.ms 7) !seen

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule_after e (Time.ms 1) (fun () -> fired := true) in
  Engine.cancel e id;
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_run_until_horizon () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule_after e (Time.ms 10) (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule_after e (Time.ms 30) (fun () -> fired := 2 :: !fired));
  Engine.run ~until:(Time.ms 20) e;
  Alcotest.(check (list int)) "only first fired" [ 1 ] !fired;
  Alcotest.(check int) "clock at horizon" (Time.ms 20) (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int)) "second fired later" [ 2; 1 ] !fired

let test_nested_scheduling () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain n () =
    incr count;
    if n > 0 then ignore (Engine.schedule_after e (Time.ms 1) (chain (n - 1)))
  in
  ignore (Engine.schedule_after e Time.zero (chain 99));
  Engine.run e;
  Alcotest.(check int) "chain length" 100 !count;
  Alcotest.(check int) "final clock" (Time.ms 99) (Engine.now e)

let test_schedule_in_past_fires_now () =
  let e = Engine.create () in
  let at = ref (-1) in
  ignore
    (Engine.schedule_after e (Time.ms 10)
       (fun () ->
         ignore (Engine.schedule_at e Time.zero (fun () -> at := Engine.now e))));
  Engine.run e;
  Alcotest.(check int) "past-scheduled fires at current time" (Time.ms 10) !at

(* Three events in the 10 ms lane (fire at 10, 11, 12 ms) plus one
   scheduled at an absolute time; [fire] takes them out of the middle,
   the tail and the head of the lane. *)
let test_fire_lane_positions () =
  let e = Engine.create () in
  let log = ref [] in
  let tag name () = log := name :: !log in
  let after name = Engine.schedule_after e (Time.ms 10) (tag name) in
  let a = after "a" in
  Engine.run ~until:(Time.ms 1) e;
  let b = after "b" in
  Engine.run ~until:(Time.ms 2) e;
  let c = after "c" in
  let x = Engine.schedule_at e (Time.ms 5) (tag "x") in
  let seqs () = List.map (fun (s, _, _) -> s) (Engine.frontier e) in
  let s = Engine.event_seq in
  Alcotest.(check (list int)) "frontier" [ s x; s a; s b; s c ] (seqs ());
  Alcotest.(check bool) "mid-lane fires" true (Engine.fire e (s b));
  Alcotest.(check int) "clock at b" (Time.ms 11) (Engine.now e);
  Alcotest.(check (list int)) "b gone" [ s x; s a; s c ] (seqs ());
  Alcotest.(check bool) "tail fires" true (Engine.fire e (s c));
  Alcotest.(check int) "clock at c" (Time.ms 12) (Engine.now e);
  (* The lane's tail is now [a]: a new 10 ms event must queue behind it. *)
  let d = after "d" in
  Alcotest.(check (list int)) "d appended" [ s x; s a; s d ] (seqs ());
  Alcotest.(check bool) "head fires" true (Engine.fire e (s a));
  Alcotest.(check int) "clock never goes back on fire" (Time.ms 12)
    (Engine.now e);
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  Alcotest.(check bool) "refire is unknown" false (Engine.fire e (s a));
  Engine.run e;
  Alcotest.(check (list string)) "firing order" [ "b"; "c"; "a"; "x"; "d" ]
    (List.rev !log);
  Alcotest.(check int) "clock at d" (Time.ms 22) (Engine.now e);
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_fire_cancelled_and_unknown () =
  let e = Engine.create () in
  let fired = ref false in
  let a = Engine.schedule_after e (Time.ms 3) (fun () -> fired := true) in
  let b = Engine.schedule_after e (Time.ms 3) ignore in
  Engine.cancel e a;
  Alcotest.(check bool) "unknown seq" false (Engine.fire e 12345);
  Alcotest.(check int) "unknown leaves queue" 2 (Engine.pending e);
  Alcotest.(check bool) "cancelled does not fire" false
    (Engine.fire e (Engine.event_seq a));
  Alcotest.(check bool) "thunk not run" false !fired;
  Alcotest.(check int) "clock unchanged" 0 (Engine.now e);
  Alcotest.(check int) "cancelled event dropped" 1 (Engine.pending e);
  Alcotest.(check int) "live" 1 (Engine.live_pending e);
  Alcotest.(check bool) "lane head after drop fires" true
    (Engine.fire e (Engine.event_seq b));
  Alcotest.(check int) "empty" 0 (Engine.pending e)

let test_frontier_is_run_order () =
  let e = Engine.create () in
  let ran = ref [] in
  let ids = ref [] in
  let sched f =
    let cell = ref (-1) in
    let id = f (fun () -> ran := !cell :: !ran) in
    cell := Engine.event_seq id;
    ids := id :: !ids
  in
  List.iter
    (fun d ->
      sched (Engine.schedule_after e (Time.ms d));
      sched (Engine.schedule_at e (Time.ms (d + 1))))
    [ 4; 2; 4; 7; 2; 0; 4; 9 ];
  Engine.run ~until:(Time.ms 3) e;
  List.iter
    (fun d -> sched (Engine.schedule_after e (Time.ms d)))
    [ 4; 2; 1; 4 ];
  List.iteri (fun i id -> if i mod 3 = 0 then Engine.cancel e id) !ids;
  let front = List.map (fun (s, _, _) -> s) (Engine.frontier e) in
  ran := [];
  Engine.run e;
  Alcotest.(check (list int)) "frontier order = run order" front (List.rev !ran)

let test_step_skips_cancelled () =
  let e = Engine.create () in
  let log = ref [] in
  let a = Engine.schedule_after e (Time.ms 1) (fun () -> log := "a" :: !log) in
  ignore (Engine.schedule_after e (Time.ms 2) (fun () -> log := "b" :: !log));
  Engine.cancel e a;
  Alcotest.(check bool) "step ran an event" true (Engine.step e);
  Alcotest.(check (list string)) "the live one" [ "b" ] !log;
  Alcotest.(check int) "clock at b" (Time.ms 2) (Engine.now e);
  Alcotest.(check bool) "empty queue" false (Engine.step e);
  let c = Engine.schedule_after e (Time.ms 1) ignore in
  Engine.cancel e c;
  Alcotest.(check bool) "only cancelled events" false (Engine.step e);
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  Alcotest.(check int) "processed" 1 (Engine.processed e)

(* [fire] runs a far event, moving the clock ahead; its thunk queues a
   10 ms event at 60 ms.  [run] then goes back to 1 ms, where another
   10 ms event lands at 11 ms: before the 60 ms one, although it was
   scheduled later with the same delay. *)
let test_clock_goes_back () =
  let e = Engine.create () in
  let log = ref [] in
  let tag name () = log := name :: !log in
  ignore
    (Engine.schedule_after e (Time.ms 1) (fun () ->
         tag "a" ();
         ignore (Engine.schedule_after e (Time.ms 10) (tag "q"))));
  let far =
    Engine.schedule_after e (Time.ms 50) (fun () ->
        tag "far" ();
        ignore (Engine.schedule_after e (Time.ms 10) (tag "p")))
  in
  Alcotest.(check bool) "far fires" true (Engine.fire e (Engine.event_seq far));
  Engine.run e;
  Alcotest.(check (list string))
    "order" [ "far"; "a"; "q"; "p" ] (List.rev !log);
  Alcotest.(check int) "clock" (Time.ms 60) (Engine.now e)

(* Reference model of the event queue: one list sorted by
   [(fire_at, seq)], with the engine's documented semantics. *)
module Model = struct
  type ev = {
    seq : int;
    fire_at : Time.t;
    thunk : unit -> unit;
    mutable cancelled : bool;
  }

  type t = {
    mutable clock : Time.t;
    mutable next_seq : int;
    mutable processed : int;
    mutable queue : ev list;
  }

  let create () = { clock = 0; next_seq = 0; processed = 0; queue = [] }

  let before a b =
    a.fire_at < b.fire_at || (a.fire_at = b.fire_at && a.seq < b.seq)

  let schedule_at m when_ thunk =
    let fire_at = max when_ m.clock in
    let ev = { seq = m.next_seq; fire_at; thunk; cancelled = false } in
    m.next_seq <- m.next_seq + 1;
    let rec insert = function
      | x :: rest when before x ev -> x :: insert rest
      | l -> ev :: l
    in
    m.queue <- insert m.queue;
    ev

  let schedule_after m delay thunk = schedule_at m (m.clock + delay) thunk

  let fire m seq =
    match List.find_opt (fun ev -> ev.seq = seq) m.queue with
    | None -> false
    | Some ev ->
        m.queue <- List.filter (fun x -> x.seq <> seq) m.queue;
        if ev.cancelled then false
        else begin
          m.clock <- max m.clock ev.fire_at;
          m.processed <- m.processed + 1;
          ev.thunk ();
          true
        end

  let run ?until ?max_events m =
    let budget = ref (Option.value max_events ~default:max_int) in
    let within ev = match until with None -> true | Some h -> ev.fire_at <= h in
    let rec loop () =
      match m.queue with
      | ev :: rest when !budget > 0 && within ev ->
          m.queue <- rest;
          m.clock <- ev.fire_at;
          if not ev.cancelled then begin
            m.processed <- m.processed + 1;
            decr budget;
            ev.thunk ()
          end;
          loop ()
      | _ -> ()
    in
    loop ();
    match (until, m.queue) with
    | Some h, ev :: _ when m.clock < h && ev.fire_at <= h -> ()
    | Some h, _ when m.clock < h -> m.clock <- h
    | _ -> ()

  let step m =
    let before = m.processed in
    run ~max_events:1 m;
    m.processed > before

  let frontier m =
    List.filter_map
      (fun ev -> if ev.cancelled then None else Some (ev.seq, ev.fire_at))
      m.queue

  let live_pending m =
    List.length (List.filter (fun ev -> not ev.cancelled) m.queue)
end

(* One side of the differential test: the engine or the model behind the
   same operations.  Handles are kept as (seq, cancel). *)
type queue_ops = {
  q_at : Time.t -> (unit -> unit) -> int * (unit -> unit);
  q_after : Time.t -> (unit -> unit) -> int * (unit -> unit);
  q_fire : int -> bool;
  q_run : Time.t option -> int option -> unit;
  q_step : unit -> bool;
  q_now : unit -> Time.t;
  q_frontier : unit -> (int * Time.t) list;
  q_pending : unit -> int;
  q_live : unit -> int;
}

let engine_ops () =
  let e = Engine.create () in
  let handle id = (Engine.event_seq id, fun () -> Engine.cancel e id) in
  {
    q_at = (fun w f -> handle (Engine.schedule_at e w f));
    q_after = (fun d f -> handle (Engine.schedule_after e d f));
    q_fire = Engine.fire e;
    q_run = (fun until max_events -> Engine.run ?until ?max_events e);
    q_step = (fun () -> Engine.step e);
    q_now = (fun () -> Engine.now e);
    q_frontier =
      (fun () -> List.map (fun (s, at, _) -> (s, at)) (Engine.frontier e));
    q_pending = (fun () -> Engine.pending e);
    q_live = (fun () -> Engine.live_pending e);
  }

let model_ops () =
  let m = Model.create () in
  let handle (ev : Model.ev) = (ev.seq, fun () -> ev.cancelled <- true) in
  {
    q_at = (fun w f -> handle (Model.schedule_at m w f));
    q_after = (fun d f -> handle (Model.schedule_after m d f));
    q_fire = Model.fire m;
    q_run = (fun until max_events -> Model.run ?until ?max_events m);
    q_step = (fun () -> Model.step m);
    q_now = (fun () -> m.clock);
    q_frontier = (fun () -> Model.frontier m);
    q_pending = (fun () -> List.length m.queue);
    q_live = (fun () -> Model.live_pending m);
  }

(* Programs.  Times are in microseconds.  A scheduled event may carry a
   child delay: when it fires it schedules one more event (which does
   the same, one level deeper, up to depth 2). *)
type qop =
  | At of int * int option
  | After of int * int option
  | Cancel of int
  | Fire of int
  | Fire_unknown
  | Run_until of int
  | Run_max of int
  | Run_all
  | Step

let show_qop = function
  | At (w, c) ->
      Printf.sprintf "At %d%s" w
        (match c with None -> "" | Some d -> Printf.sprintf "/%d" d)
  | After (d, c) ->
      Printf.sprintf "After %d%s" d
        (match c with None -> "" | Some d -> Printf.sprintf "/%d" d)
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Fire i -> Printf.sprintf "Fire %d" i
  | Fire_unknown -> "Fire_unknown"
  | Run_until h -> Printf.sprintf "Run_until +%d" h
  | Run_max n -> Printf.sprintf "Run_max %d" n
  | Run_all -> "Run_all"
  | Step -> "Step"

let gen_delay =
  QCheck.Gen.(
    frequency
      [
        (6, oneofl [ 5; 20; 1000 ]);
        (2, return 0);
        (1, int_range (-10) (-1));
        (2, int_range 0 300);
      ])

let gen_qop =
  QCheck.Gen.(
    let child = opt ~ratio:0.5 gen_delay in
    frequency
      [
        (3, map2 (fun w c -> At (w, c)) (int_range 0 2000) child);
        (8, map2 (fun d c -> After (d, c)) gen_delay child);
        (2, map (fun i -> Cancel i) nat);
        (3, map (fun i -> Fire i) nat);
        (1, return Fire_unknown);
        (2, map (fun h -> Run_until h) (int_range 0 100));
        (2, map (fun n -> Run_max n) (int_range 1 4));
        (1, return Run_all);
        (2, return Step);
      ])

let arb_program =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_qop ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) gen_qop)

(* Interpret a program on one side and record, after every operation,
   what it returned and everything the queue shows. *)
let observe ops prog =
  let fired = ref [] in
  let handles = ref [] in
  let remember h = handles := h :: !handles in
  let rec thunk id child depth () =
    fired := id :: !fired;
    match child with
    | Some d when depth < 2 ->
        let id = List.length !handles in
        remember (ops.q_after (Time.us d) (thunk id child (depth + 1)))
    | _ -> ()
  in
  let pick i = List.nth !handles (i mod List.length !handles) in
  List.map
    (fun op ->
      let result =
        match op with
        | At (w, c) ->
            let id = List.length !handles in
            remember (ops.q_at (Time.us w) (thunk id c 0));
            ""
        | After (d, c) ->
            let id = List.length !handles in
            remember (ops.q_after (Time.us d) (thunk id c 0));
            ""
        | Cancel i when !handles <> [] ->
            snd (pick i) ();
            ""
        | Fire i when !handles <> [] ->
            string_of_bool (ops.q_fire (fst (pick i)))
        | Cancel _ | Fire _ -> ""
        | Fire_unknown -> string_of_bool (ops.q_fire 1_000_000)
        | Run_until h ->
            ops.q_run (Some (ops.q_now () + Time.us h)) None;
            ""
        | Run_max k ->
            ops.q_run None (Some k);
            ""
        | Run_all ->
            ops.q_run None None;
            ""
        | Step -> string_of_bool (ops.q_step ())
      in
      ( result,
        List.rev !fired,
        ops.q_now (),
        ops.q_frontier (),
        ops.q_pending (),
        ops.q_live () ))
    prog

let prop_queue_matches_model =
  QCheck.Test.make ~name:"event queue = sorted-list model" ~count:500
    arb_program (fun prog ->
      observe (engine_ops ()) prog = observe (model_ops ()) prog)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  let c = Rng.create ~seed:43 in
  Alcotest.(check bool) "different seed differs" true
    (Rng.bits64 (Rng.create ~seed:42) <> Rng.bits64 c)

let test_rng_split_independent () =
  let a = Rng.create ~seed:1 in
  let b = Rng.split a in
  let x = Rng.bits64 b in
  (* Replaying: splitting at the same point yields the same stream. *)
  let a' = Rng.create ~seed:1 in
  let b' = Rng.split a' in
  Alcotest.(check int64) "split reproducible" x (Rng.bits64 b')

let test_rng_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Rng.float rng 2.0 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 2.0);
    let i = Rng.int_in rng ~lo:5 ~hi:8 in
    Alcotest.(check bool) "int_in inclusive" true (i >= 5 && i <= 8)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean ~5" true (mean > 4.7 && mean < 5.3)

let test_rng_bernoulli () =
  let rng = Rng.create ~seed:3 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "bernoulli rate ~0.3" true (rate > 0.27 && rate < 0.33)

let test_heap_sorts () =
  let h = Heap.create ~cmp:Int.compare in
  let input = [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ] in
  List.iter (Heap.push h) input;
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (drain [])

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are seed-deterministic" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let run () =
        let e = Engine.create ~seed () in
        let rng = Rng.split (Engine.rng e) in
        let log = Buffer.create 64 in
        for i = 0 to 20 do
          let d = Rng.int rng 1000 in
          ignore
            (Engine.schedule_after e (Time.us d) (fun () ->
                 Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e))))
        done;
        Engine.run e;
        Buffer.contents log
      in
      String.equal (run ()) (run ()))

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [ Alcotest.test_case "units" `Quick test_time_units ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_events_fire_in_time_order;
          Alcotest.test_case "same-instant fifo" `Quick test_same_instant_fifo;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "run until horizon" `Quick test_run_until_horizon;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "past scheduling clamps" `Quick
            test_schedule_in_past_fires_now;
          QCheck_alcotest.to_alcotest prop_engine_deterministic;
          Alcotest.test_case "fire head, mid-lane, tail" `Quick
            test_fire_lane_positions;
          Alcotest.test_case "fire cancelled or unknown" `Quick
            test_fire_cancelled_and_unknown;
          Alcotest.test_case "frontier is run order" `Quick
            test_frontier_is_run_order;
          Alcotest.test_case "step skips cancelled" `Quick
            test_step_skips_cancelled;
          Alcotest.test_case "clock goes back" `Quick test_clock_goes_back;
          QCheck_alcotest.to_alcotest prop_queue_matches_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split reproducible" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
    ]
