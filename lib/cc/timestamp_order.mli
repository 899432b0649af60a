(** Basic timestamp ordering with deferred writes and the Thomas write
    rule at commit.

    The per-key rules are {!Stamps}'s: a read aborts on a newer
    committed write or an older pending writer, a write aborts on a
    newer read or write, and nothing ever blocks.  Buffered writes
    install at commit unless an even newer write landed first.  This
    scheduler adds the per-transaction write buffer and the stats.

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
(** Installs surviving buffered writes in sorted key order. *)

val abort : t -> txn:Ids.Txn_id.t -> unit
(** Voluntary abort; idempotent. *)

val stats : t -> Scheduler.stats
