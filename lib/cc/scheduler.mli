(** Common interface for local concurrency-control schemes.

    Requests are continuation-passing: a scheme that can answer
    immediately calls the continuation synchronously; a blocking scheme
    (2PL) calls it when the lock is granted; any scheme may answer
    [`Abort] to signal that the transaction lost a conflict and must
    restart.  After [`Abort] the scheduler has already released the
    transaction's resources — the caller just forgets the transaction.

    Writes are buffered and applied to the store atomically at commit, so
    every scheme presents the same recoverable, strict behaviour to the
    outside. *)

open Rt_types
open Rt_storage

type read_result = [ `Value of string option | `Abort ]

type write_result = [ `Ok | `Abort ]

type commit_result = [ `Committed | `Aborted ]

(** Why transactions aborted, for experiment reporting. *)
type stats = {
  mutable started : int;
  mutable committed : int;
  mutable aborted : int;
  mutable deadlock_aborts : int;
  mutable order_aborts : int;  (** Timestamp-order violations. *)
  mutable validation_aborts : int;  (** OCC backward-validation failures. *)
}

module type S = sig
  type t

  val name : string

  val create : ?history:History.t -> Kv.t -> t

  val begin_txn : t -> Ids.Txn_id.t -> unit

  val read :
    t -> txn:Ids.Txn_id.t -> key:string -> k:(read_result -> unit) -> unit

  val write :
    t ->
    txn:Ids.Txn_id.t ->
    key:string ->
    value:string ->
    k:(write_result -> unit) ->
    unit

  val commit : t -> txn:Ids.Txn_id.t -> k:(commit_result -> unit) -> unit

  val abort : t -> txn:Ids.Txn_id.t -> unit
  (** Voluntary abort; idempotent. *)

  val stats : t -> stats
end

val fresh_stats : unit -> stats
