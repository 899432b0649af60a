(** Per-key timestamp-ordering state and its rules, shared by the
    {!Timestamp_order} scheduler and the replicas of the distributed
    stack.

    A transaction's timestamp is its id (total order with site
    tie-break, older is smaller).  Each key carries a read stamp, the
    stamp of its newest committed write, and the transactions holding
    an uncommitted (pending) write on it.  Writes are deferred: [write]
    only marks the key pending, and the caller installs the value at
    commit if [install] allows it.  No rule ever blocks; a refusal means
    the transaction must abort, and the caller then calls [release]. *)

open Rt_types

type t

val create : unit -> t

val read : t -> txn:Ids.Txn_id.t -> key:string -> bool
(** Admit a read of the committed value.  Refused ([false]) when a
    newer write has already committed on [key], or when an older
    transaction holds a pending write on it (the value the read ought
    to see is not available yet).  Otherwise the read stamp rises to
    [txn]'s timestamp. *)

val write : t -> txn:Ids.Txn_id.t -> key:string -> bool
(** Admit a deferred write.  Refused when a newer transaction has
    already read or committed a write on [key].  Otherwise [key] is
    marked pending for [txn] (idempotent). *)

val install : t -> txn:Ids.Txn_id.t -> key:string -> bool
(** The Thomas write rule, at commit: [false] when a newer write has
    already committed on [key] (the caller skips the obsolete write and
    the stamp is untouched); otherwise the write stamp becomes [txn]'s
    and the caller applies the value. *)

val release : t -> txn:Ids.Txn_id.t -> unit
(** Clear every pending mark [txn] holds (commit or abort); a no-op for
    a transaction holding none. *)

val pending_keys : t -> txn:Ids.Txn_id.t -> string list
(** Keys on which [txn] holds a pending mark, sorted. *)

val reset : t -> unit
(** Forget everything (a crashed replica's volatile state). *)

val dump : t -> string
(** Canonical rendering of every key's stamps, in sorted key order:
    [key{r=<read>;w=<write>;p=<pending,...>};] per key, with [-] for
    an unset stamp and the pending writers in timestamp order. *)
