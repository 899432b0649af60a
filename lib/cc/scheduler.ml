open Rt_types
open Rt_storage

type read_result = [ `Value of string option | `Abort ]
type write_result = [ `Ok | `Abort ]
type commit_result = [ `Committed | `Aborted ]

type stats = {
  mutable started : int;
  mutable committed : int;
  mutable aborted : int;
  mutable deadlock_aborts : int;
  mutable order_aborts : int;
  mutable validation_aborts : int;
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
  val stats : t -> stats
end

let fresh_stats () =
  {
    started = 0;
    committed = 0;
    aborted = 0;
    deadlock_aborts = 0;
    order_aborts = 0;
    validation_aborts = 0;
  }
