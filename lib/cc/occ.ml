(* Optimistic concurrency control with backward validation.

   Transactions execute against a private buffer, recording the version
   of every item they read (and of every item they intend to overwrite).
   Validation at commit re-checks that all those versions are still
   current; any change means a conflicting transaction committed in the
   window, and the validating transaction aborts.  Validation plus write
   phase is a single atomic step (the simulator is single-threaded per
   site), which is the classical critical-section assumption. *)

open Rt_types
open Rt_storage
module Tid = Ids.Txn_id

let name = "OCC"

type ctx = {
  reads : (string, int) Hashtbl.t;  (* key -> version observed *)
  writes : (string, string) Hashtbl.t;
  mutable alive : bool;
}

type t = {
  kv : Kv.t;
  ctxs : ctx Ids.Txn_map.t;
  stats : Scheduler.stats;
  history : History.t option;
}

let create ?history kv =
  {
    kv;
    ctxs = Ids.Txn_map.create 64;
    stats = Scheduler.fresh_stats ();
    history;
  }

let stats t = t.stats

let begin_txn t txn =
  t.stats.started <- t.stats.started + 1;
  Ids.Txn_map.replace t.ctxs txn
    { reads = Hashtbl.create 8; writes = Hashtbl.create 8; alive = true }

let ctx_of t txn =
  match Ids.Txn_map.find_opt t.ctxs txn with
  | Some c -> c
  | None -> invalid_arg "Occ: unknown transaction"

let observe ctx t key =
  if not (Hashtbl.mem ctx.reads key) then
    Hashtbl.replace ctx.reads key (Kv.version t.kv key)

let read t ~txn ~key ~k =
  let ctx = ctx_of t txn in
  if not ctx.alive then k `Abort
  else
    match Hashtbl.find_opt ctx.writes key with
    | Some v -> k (`Value (Some v))
    | None ->
        observe ctx t key;
        k (`Value (Option.map (fun (i : Kv.item) -> i.value) (Kv.get t.kv key)))

let write t ~txn ~key ~value ~k =
  let ctx = ctx_of t txn in
  if not ctx.alive then k `Abort
  else begin
    (* Record the overwritten version so blind write-write conflicts are
       also caught at validation (first committer wins). *)
    observe ctx t key;
    Hashtbl.replace ctx.writes key value;
    k `Ok
  end

let validate t ctx =
  (* rt_lint: allow deterministic-iteration -- order-insensitive conjunction *)
  Hashtbl.fold
    (fun key version ok -> ok && Kv.version t.kv key = version)
    ctx.reads true

let commit t ~txn ~k =
  let ctx = ctx_of t txn in
  if not ctx.alive then k `Aborted
  else if not (validate t ctx) then begin
    ctx.alive <- false;
    t.stats.aborted <- t.stats.aborted + 1;
    t.stats.validation_aborts <- t.stats.validation_aborts + 1;
    Option.iter (fun h -> History.abort h txn) t.history;
    Ids.Txn_map.remove t.ctxs txn;
    k `Aborted
  end
  else begin
    Option.iter
      (fun h ->
        Rt_sim.Det.iter_sorted ~cmp:String.compare
          (fun key version ->
            if not (Hashtbl.mem ctx.writes key) then
              History.read h txn ~key ~version)
          ctx.reads)
      t.history;
    Rt_sim.Det.iter_sorted ~cmp:String.compare
      (fun key value ->
        let version = Kv.version t.kv key + 1 in
        Kv.set t.kv ~key ~value ~version;
        Option.iter (fun h -> History.write h txn ~key ~version) t.history)
      ctx.writes;
    t.stats.committed <- t.stats.committed + 1;
    Option.iter (fun h -> History.commit h txn) t.history;
    Ids.Txn_map.remove t.ctxs txn;
    k `Committed
  end

let abort t ~txn =
  match Ids.Txn_map.find_opt t.ctxs txn with
  | None -> ()
  | Some ctx ->
      if ctx.alive then begin
        ctx.alive <- false;
        t.stats.aborted <- t.stats.aborted + 1;
        Option.iter (fun h -> History.abort h txn) t.history
      end;
      Ids.Txn_map.remove t.ctxs txn
