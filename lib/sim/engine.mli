(** Discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of events.  Events
    scheduled for the same instant fire in scheduling order, which makes runs
    deterministic.  All components of the simulated system (network, storage
    devices, failure injectors, clients) interact only by scheduling events
    here.

    {2 Queue structure}

    Events fire in the total order of [(fire_at, seq)], where [seq] is the
    scheduling sequence number.  The queue holds them in two places:

    - {e Lanes.}  {!schedule_after} puts an event in the FIFO lane of its
      effective delay [d = fire_at - now] (after the clamp to [now]).  A
      lane is an intrusive singly linked list found through an int-keyed
      table; it is dropped when it empties, so one-off random delays do
      not accumulate.  Only a lane's head is in the heap; popping it
      pushes the lane's next event.  Thousands of parked timers with the
      same delay (2 s garbage-collection reapers, protocol timeouts,
      cancelled timers waiting to drain) therefore cost O(1) each.
    - {e The heap} ({!Heap}) holds the lane heads and the events of
      {!schedule_at} (network deliveries, fault injections).

    Why this gives the [(fire_at, seq)] order: a lane's events are
    appended at a clock that does not go back, with growing [seq], so
    each lane is sorted by [(fire_at, seq)].  Taking the heap minimum
    over sorted lanes is then a merge by that total key: exactly the
    order of one heap holding every event.

    Out-of-order fallback: the clock goes back only after {!fire}, which
    may move it ahead of events that a later {!run} then fires.  An event
    that would sort before its lane's tail goes into the heap directly
    instead, so the lanes stay sorted in every case. *)

type t

type event_id
(** Handle for cancelling a scheduled event. *)

(** {2 Event labels}

    Every event carries a label describing what firing it means, so a
    schedule explorer can enumerate the pending frontier and decide which
    admissible event to fire next instead of following timestamp order.
    Labels are free for normal runs — {!run} and {!step} ignore them.

    - [Internal site]: a glue step (zero-delay continuation, local
      loopback, device completion plumbing) that is not an independent
      scheduling choice; [-1] means "no owning site".  The default.
    - [Delivery]: a network message arrival at [dst].
    - [Timer]: a one-shot timeout whose early/late firing is a real
      protocol schedule (resend, vote-collect, lock-wait, recovery).
    - [Recurring]: a self-re-arming background activity (heartbeats);
      explorers skip these or the frontier never drains. *)
type label =
  | Internal of int
  | Delivery of { src : int; dst : int }
  | Timer of { site : int; name : string }
  | Recurring of { site : int; name : string }

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes an engine whose root RNG is seeded with [seed]
    (default 0). *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root RNG.  Components should [Rng.split] it at setup time
    rather than drawing from it during the run. *)

val schedule_at : ?label:label -> t -> Time.t -> (unit -> unit) -> event_id
(** [schedule_at t when_ f] runs [f] at virtual time [when_].  If [when_] is
    in the past, the event fires at the current time.  [label] defaults to
    [Internal (-1)]. *)

val schedule_after : ?label:label -> t -> Time.t -> (unit -> unit) -> event_id
(** [schedule_after t delay f] runs [f] [delay] after the current time. *)

val event_seq : event_id -> int
(** The event's scheduling sequence number — unique per engine, assigned
    at scheduling time, and therefore stable across replays that share
    the same execution prefix.  Explorers use it as the event's identity. *)

val event_label : event_id -> label

val frontier : t -> (int * Time.t * label) list
(** Live (non-cancelled) pending events as [(seq, fire_at, label)],
    sorted by [(fire_at, seq)] — the order {!run} would fire them in. *)

val fire : t -> int -> bool
(** [fire t seq] executes the pending event with the given sequence
    number {e now}, regardless of its timestamp: the clock advances to
    [max now fire_at] and the thunk runs.  This is the explorer's
    primitive for realising one admissible reordering of the frontier.
    Returns [false] (and fires nothing) if no live event has that seq; a
    cancelled event with that seq is dropped from the queue. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of events still queued (including cancelled ones not yet
    drained). *)

val live_pending : t -> int
(** Number of queued events that are not cancelled — the quiescence/timer
    audit used by the crash-point sweep: a component that keeps re-arming
    a timer after its work is done shows up as a live event that never
    drains. *)

(** {2 Crash points}

    Instrumented components (the WAL, the protocol interpreters) announce
    named execution points through the engine; a fault-injection harness
    installs a hook to record them or to crash a site at an exact
    occurrence.  With no hook installed the announcements are free. *)

type crash_hook = site:int -> point:string -> unit

val set_crash_hook : t -> crash_hook option -> unit
(** Install (or with [None] remove) the global crash-point hook.  The hook
    may synchronously crash the announcing site; announcing components
    must re-check their own liveness when [crash_point] returns. *)

val crash_hook_installed : t -> bool
(** Cheap guard so hot paths can skip building point names. *)

val crash_point : t -> site:int -> point:string -> unit
(** Announce that [site] reached the named point.  No-op without a hook. *)

val processed : t -> int
(** Number of events executed so far. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Execute events in time order until the queue is empty, the clock would
    pass [until], or [max_events] have been executed.  Events scheduled
    exactly at [until] do fire. *)

val step : t -> bool
(** Execute the next live event, first draining any cancelled events
    ahead of it (which moves the clock as {!run} does).  Returns whether
    an event ran: [false] if no live event was pending. *)
