(** Optimistic concurrency control with backward validation.

    Transactions run against a private buffer, recording the version of
    every item read (and of every item they intend to overwrite).
    Validation at commit re-checks that those versions are still
    current; any change means a conflicting transaction committed in
    the window and the validator aborts.  Validation plus write phase
    is one atomic step — the classical critical-section assumption,
    which holds because the simulator is single-threaded per site.

    Satisfies {!Scheduler.S}. *)

open Rt_types
open Rt_storage

type t

val name : string

val create : ?history:History.t -> Kv.t -> t

val begin_txn : t -> Ids.Txn_id.t -> unit

val read :
  t ->
  txn:Ids.Txn_id.t ->
  key:string ->
  k:(Scheduler.read_result -> unit) ->
  unit

val write :
  t ->
  txn:Ids.Txn_id.t ->
  key:string ->
  value:string ->
  k:(Scheduler.write_result -> unit) ->
  unit

val commit :
  t -> txn:Ids.Txn_id.t -> k:(Scheduler.commit_result -> unit) -> unit
(** Validates, then applies buffered writes in sorted key order (replay
    determinism) before reporting [`Committed]. *)

val abort : t -> txn:Ids.Txn_id.t -> unit
(** Voluntary abort; idempotent. *)

val stats : t -> Scheduler.stats
