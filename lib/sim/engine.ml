type label =
  | Internal of int
  | Delivery of { src : int; dst : int }
  | Timer of { site : int; name : string }
  | Recurring of { site : int; name : string }

type event = {
  fire_at : Time.t;
  seq : int;
  label : label;
  thunk : unit -> unit;
  mutable cancelled : bool;
  lane : lane;  (* [no_lane] when the event sits in the heap itself *)
  mutable next : event;  (* the next event of [lane], or [nil] *)
}

(* A FIFO of the pending events scheduled with one effective delay,
   linked through [next].  Only [head] is in the heap. *)
and lane = { delay : Time.t; mutable head : event; mutable tail : event }

(* Sentinels: never scheduled, never mutated. *)
let rec nil =
  {
    fire_at = max_int;
    seq = -1;
    label = Internal (-1);
    thunk = (fun () -> ());
    cancelled = true;
    lane = no_lane;
    next = nil;
  }

and no_lane = { delay = -1; head = nil; tail = nil }

type event_id = event

type crash_hook = site:int -> point:string -> unit

(* Lanes keyed by delay.  Delays are round numbers (multiples of 1 µs or
   1 ms), so mix the bits before they pick a bucket. *)
module Lanes = Hashtbl.Make (struct
  type t = Time.t

  let equal = Int.equal
  let hash d = (d * 0x1e3779b97f4a7c15) lsr 32
end)

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable n_processed : int;
  mutable n_pending : int;
  queue : event Heap.t;
  lanes : lane Lanes.t;
  root_rng : Rng.t;
  mutable crash_hook : crash_hook option;
}

let compare_event a b =
  let c = Time.compare a.fire_at b.fire_at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?(seed = 0) () =
  {
    clock = Time.zero;
    next_seq = 0;
    n_processed = 0;
    n_pending = 0;
    queue = Heap.create ~cmp:compare_event;
    lanes = Lanes.create 64;
    root_rng = Rng.create ~seed;
    crash_hook = None;
  }

let now t = t.clock
let rng t = t.root_rng

let set_crash_hook t hook = t.crash_hook <- hook
let crash_hook_installed t = t.crash_hook <> None

let crash_point t ~site ~point =
  match t.crash_hook with None -> () | Some f -> f ~site ~point

let make_event t ~fire_at ~label ~lane thunk =
  let seq = t.next_seq in
  let ev =
    { fire_at; seq; label; thunk; cancelled = false; lane; next = nil }
  in
  t.next_seq <- t.next_seq + 1;
  t.n_pending <- t.n_pending + 1;
  ev

let schedule_at ?(label = Internal (-1)) t when_ thunk =
  let fire_at = Time.max when_ t.clock in
  let ev = make_event t ~fire_at ~label ~lane:no_lane thunk in
  Heap.push t.queue ev;
  ev

let schedule_after ?(label = Internal (-1)) t delay thunk =
  let fire_at = Time.max (Time.add t.clock delay) t.clock in
  let d = Time.sub fire_at t.clock in
  match Lanes.find_opt t.lanes d with
  | None ->
      let lane = { delay = d; head = nil; tail = nil } in
      let ev = make_event t ~fire_at ~label ~lane thunk in
      lane.head <- ev;
      lane.tail <- ev;
      Lanes.add t.lanes d lane;
      Heap.push t.queue ev;
      ev
  | Some lane when Time.(fire_at < lane.tail.fire_at) ->
      (* The clock went back (an explorer [fire] ran ahead, then [run]
         resumed timestamp order): appending would unsort the lane. *)
      let ev = make_event t ~fire_at ~label ~lane:no_lane thunk in
      Heap.push t.queue ev;
      ev
  | Some lane ->
      let ev = make_event t ~fire_at ~label ~lane thunk in
      lane.tail.next <- ev;
      lane.tail <- ev;
      ev

(* [ev] has left [lane], which is now empty. *)
let drop_lane t lane =
  lane.head <- nil;
  lane.tail <- nil;
  Lanes.remove t.lanes lane.delay

(* Remove [ev], the heap's minimum, and put its lane's next event (if
   any) in its place.  An event outside any lane has no next. *)
let take_top t ev =
  let next = ev.next in
  if next == nil then begin
    Heap.remove_top t.queue;
    if ev.lane != no_lane then drop_lane t ev.lane
  end
  else begin
    ev.next <- nil;
    ev.lane.head <- next;
    Heap.replace_top t.queue next
  end;
  t.n_pending <- t.n_pending - 1

(* Remove [ev] from wherever it is queued: the heap (alone or as its
   lane's head) or the middle or tail of its lane. *)
let unlink t ev =
  let lane = ev.lane in
  if lane == no_lane || lane.head == ev then begin
    Heap.remove_first t.queue (fun e -> e == ev);
    if ev.next != nil then begin
      lane.head <- ev.next;
      Heap.push t.queue ev.next
    end
    else if lane != no_lane then drop_lane t lane
  end
  else begin
    let rec prev p = if p.next == ev then p else prev p.next in
    let p = prev lane.head in
    p.next <- ev.next;
    if lane.tail == ev then lane.tail <- p
  end;
  ev.next <- nil;
  t.n_pending <- t.n_pending - 1

(* Every queued event is in the heap or reachable from a lane head in it. *)
let fold_pending f init t =
  let rec walk acc ev = if ev == nil then acc else walk (f acc ev) ev.next in
  Heap.fold walk init t.queue

let cancel _t ev = ev.cancelled <- true
let pending t = t.n_pending

let event_seq (ev : event_id) = ev.seq
let event_label (ev : event_id) = ev.label

let frontier t =
  fold_pending
    (fun acc ev ->
      if ev.cancelled then acc else (ev.seq, ev.fire_at, ev.label) :: acc)
    [] t
  |> List.sort (fun (s1, t1, _) (s2, t2, _) ->
         let c = Time.compare t1 t2 in
         if c <> 0 then c else Int.compare s1 s2)

let fire t seq =
  (* Run the event with the given seq as if it were next: the clock only
     ever moves forward, so firing an event "early" models the permitted
     asynchrony — other pending events will simply fire late.  A
     cancelled event is dropped from the queue without running. *)
  let ev =
    fold_pending (fun found ev -> if ev.seq = seq then ev else found) nil t
  in
  if ev == nil then false
  else begin
    unlink t ev;
    if ev.cancelled then false
    else begin
      t.clock <- Time.max t.clock ev.fire_at;
      t.n_processed <- t.n_processed + 1;
      ev.thunk ();
      true
    end
  end

let live_pending t =
  fold_pending (fun acc ev -> if ev.cancelled then acc else acc + 1) 0 t

let processed t = t.n_processed

let run ?until ?max_events t =
  let budget = ref (Option.value max_events ~default:max_int) in
  let continue () =
    !budget > 0
    &&
    let ev = Heap.top_or t.queue ~default:nil in
    ev != nil
    &&
    match until with
    | None -> true
    | Some horizon -> Time.(ev.fire_at <= horizon)
  in
  let same_instant = ref 0 in
  let last_instant = ref (-1) in
  while continue () do
    let ev = Heap.top_or t.queue ~default:nil in
    take_top t ev;
    t.clock <- ev.fire_at;
    if ev.fire_at = !last_instant then begin
      incr same_instant;
      if !same_instant > 5_000_000 then
        failwith
          "Engine.run: millions of events at a single instant — some \
           component is rescheduling itself with zero delay"
    end
    else begin
      last_instant := ev.fire_at;
      same_instant := 0
    end;
    if not ev.cancelled then begin
      t.n_processed <- t.n_processed + 1;
      decr budget;
      ev.thunk ()
    end
  done;
  (* If we stopped because of the horizon, advance the clock to it so that
     subsequent scheduling is relative to the end of the window. *)
  match until with
  | Some horizon when Time.(t.clock < horizon) ->
      let ev = Heap.top_or t.queue ~default:nil in
      if ev == nil || Time.(ev.fire_at > horizon) then t.clock <- horizon
  | _ -> ()

let step t =
  let before = t.n_processed in
  run ~max_events:1 t;
  t.n_processed > before
