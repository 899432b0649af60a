(** Strict two-phase-locking lock manager.

    Shared/exclusive locks per key with FIFO waiting, lock upgrades, and
    deadlock detection over the induced wait-for graph, scoped to the
    transactions that queued since the last clean check.  Grants are
    synchronous when possible ([Granted] return) and otherwise delivered
    through the request's callback when a release unblocks it — the caller
    (the transaction scheduler) decides how to resume the transaction.

    Invariants maintained:
    - a key's holders are either one exclusive owner or any number of
      shared owners;
    - a waiting request is granted only when compatible with all current
      holders and no older queued request would be starved;
    - an upgrade (S→X by the sole shared holder) jumps the queue, since it
      can never be granted behind another request that conflicts with its
      held lock. *)

open Rt_types

type mode = Shared | Exclusive

val pp_mode : Format.formatter -> mode -> unit

type t

val create : unit -> t

type outcome =
  | Granted  (** The lock is held on return. *)
  | Waiting  (** Queued; the callback fires when granted. *)

val acquire :
  t -> txn:Ids.Txn_id.t -> key:string -> mode:mode -> on_grant:(unit -> unit) ->
  outcome
(** Re-acquiring a mode already held (or acquiring [Shared] while holding
    [Exclusive]) returns [Granted] without changing state. *)

val release_all : t -> txn:Ids.Txn_id.t -> unit
(** Drop every lock held by [txn], remove its queued requests, and grant
    whatever became grantable (callbacks fire synchronously, in queue
    order). *)

val holds : t -> txn:Ids.Txn_id.t -> key:string -> mode option
(** Strongest mode held. *)

val holders : t -> key:string -> (Ids.Txn_id.t * mode) list

val waiters : t -> key:string -> (Ids.Txn_id.t * mode) list
(** In queue order. *)

val is_waiting : t -> txn:Ids.Txn_id.t -> bool

val held_keys : t -> txn:Ids.Txn_id.t -> string list
(** Sorted. *)

val blocking : t -> txn:Ids.Txn_id.t -> Ids.Txn_id.t list
(** Transactions [txn] currently waits behind, across every key it has a
    queued request on: incompatible holders plus incompatible requests
    queued ahead.  Sorted, deduplicated.  Empty when not waiting. *)

val wait_for_graph : t -> Wfg.t
(** Edges from each waiter to every transaction it must out-wait: current
    incompatible holders plus incompatible requests queued ahead of it. *)

val detect_deadlock :
  ?policy:[ `Youngest | `Oldest ] -> t -> Ids.Txn_id.t option
(** Run cycle detection; return the chosen victim if a deadlock exists.
    The caller is responsible for aborting the victim (which must include
    [release_all]).

    The result is always [Wfg.find_cycle (wait_for_graph t)] mapped
    through [Wfg.victim ?policy], but the check is scoped to the
    transactions that queued a request since the last call that returned
    [None] (the dirty set, see {!unchecked_waiters}):
    - no such transaction: [None] in O(1);
    - otherwise a depth-first search over the part of the wait-for graph
      reachable from them, with successors read straight from the
      queues: [None] if it meets no cycle, which empties the set;
    - only when it does meet one is the full graph built and searched,
      as before, so the victim is unchanged.  The set is kept, since
      the caller's abort may leave further cycles.

    Why that is exact: a call that returns [None] leaves the graph
    acyclic, and between calls the only operations that add edges are
    queued requests, whose new edges all touch the requester (an
    upgrade queued at the front also gains edges into it).  Grants and
    [release_all] only remove or re-label edges, and [release_all]
    drops its transaction from the set because no edge touches it any
    more.  So every cycle passes through a dirty transaction.  The set
    is therefore a cache of the lock state, not state of its own: equal
    holders and queues give equal answers, and {!dump} need not show
    it. *)

val resolve_deadlocks : t -> abort:(Ids.Txn_id.t -> unit) -> unit
(** Break every deadlock: while {!detect_deadlock} (youngest-victim
    policy) names a victim, call [abort] on it.  [abort] must release
    the victim's locks (directly or through {!release_all}); after
    100_000 victims in one call it raises [Failure] rather than loop. *)

val unchecked_waiters : t -> int
(** Size of the dirty set: transactions that queued a request since the
    last {!detect_deadlock} that returned [None] and have not released
    since (diagnostics, tests). *)

val locked_keys : t -> int
(** Number of keys with at least one holder or waiter (table size). *)

val dump :
  t ->
  (string * (Ids.Txn_id.t * mode) list * (Ids.Txn_id.t * mode) list) list
(** Every live entry as [(key, holders, waiting)], sorted by key
    (diagnostics: names the transactions behind {!locked_keys}). *)
