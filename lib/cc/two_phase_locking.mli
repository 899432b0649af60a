(** Strict two-phase locking over {!Rt_lock.Lock_table}, with a choice
    of deadlock policy: cycle detection on the wait-for graph
    ([`Detect], the default), or the preemptive wound-wait / wait-die
    orderings driven by transaction timestamps.

    Satisfies {!Scheduler.S}; [create] uses the [`Detect] policy. *)

open Rt_types
open Rt_storage

type t

type policy = [ `Detect | `Wound_wait | `Wait_die ]

val name : string

val create : ?history:History.t -> Kv.t -> t

val create_with_policy : ?history:History.t -> policy:policy -> Kv.t -> t

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
(** Applies buffered writes in sorted key order, then releases all
    locks. *)

val abort : t -> txn:Ids.Txn_id.t -> unit
(** Voluntary abort; idempotent. *)

val stats : t -> Scheduler.stats
