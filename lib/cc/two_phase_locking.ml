(* Strict two-phase locking with a choice of deadlock-handling policy.

   Reads take shared locks, writes take exclusive locks (upgrading when
   the transaction already reads the key); everything is held to commit
   or abort.

   Policies (Rosenkrantz/Stearns/Lewis plus detection):
   - [`Detect] (default): when a request blocks, the wait-for graph is
     checked and the youngest transaction in any cycle aborts.
   - [`Wound_wait]: an older requester wounds (aborts) younger
     conflicting holders; a younger requester waits.  Deadlock-free.
   - [`Wait_die]: an older requester waits; a younger requester dies
     immediately.  Deadlock-free.

   Either way, the caller of a blocked operation gets exactly one of its
   grant continuation or an [`Abort]. *)

open Rt_types
open Rt_storage
module Tid = Ids.Txn_id

let name = "2PL"

type ctx = {
  writes : (string, string) Hashtbl.t;
  mutable alive : bool;
  (* Continuation to fire with an abort if this transaction is killed
     while waiting for a lock. *)
  mutable on_victim : (unit -> unit) option;
}

type policy = [ `Detect | `Wound_wait | `Wait_die ]

type t = {
  kv : Kv.t;
  locks : Rt_lock.Lock_table.t;
  ctxs : ctx Ids.Txn_map.t;
  stats : Scheduler.stats;
  history : History.t option;
  policy : policy;
}

let create_with_policy ?history ~policy kv =
  {
    kv;
    locks = Rt_lock.Lock_table.create ();
    ctxs = Ids.Txn_map.create 64;
    stats = Scheduler.fresh_stats ();
    history;
    policy;
  }

let create ?history kv = create_with_policy ?history ~policy:`Detect kv

let stats t = t.stats

(* A transaction can be wounded (aborted and forgotten) while its client
   is between operations; the client discovers this on its next call, so
   an unknown transaction answers "aborted" rather than raising. *)
let ctx_of t txn = Ids.Txn_map.find_opt t.ctxs txn

let begin_txn t txn =
  t.stats.started <- t.stats.started + 1;
  Ids.Txn_map.replace t.ctxs txn
    { writes = Hashtbl.create 8; alive = true; on_victim = None }

let forget t txn = Ids.Txn_map.remove t.ctxs txn

let abort_internal t txn ~deadlock =
  match Ids.Txn_map.find_opt t.ctxs txn with
  | None -> ()
  | Some ctx when not ctx.alive -> ()
  | Some ctx ->
      ctx.alive <- false;
      t.stats.aborted <- t.stats.aborted + 1;
      if deadlock then t.stats.deadlock_aborts <- t.stats.deadlock_aborts + 1;
      Option.iter (fun h -> History.abort h txn) t.history;
      (* Releasing also drops any queued request, so the stored grant
         continuation can never fire afterwards. *)
      Rt_lock.Lock_table.release_all t.locks ~txn;
      let k = ctx.on_victim in
      ctx.on_victim <- None;
      forget t txn;
      Option.iter (fun k -> k ()) k

(* Transactions a new request may end up waiting behind: holders whose
   mode conflicts, plus everything already queued (FIFO order makes any
   queued request a potential blocker regardless of mode). *)
let blockers t ~txn ~key ~mode =
  let holders =
    Rt_lock.Lock_table.holders t.locks ~key
    |> List.filter (fun (h, m) ->
           (not (Tid.equal h txn))
           &&
           match (mode, m) with
           | Rt_lock.Lock_table.Shared, Rt_lock.Lock_table.Shared -> false
           | _ -> true)
    |> List.map fst
  in
  let waiters =
    Rt_lock.Lock_table.waiters t.locks ~key
    |> List.map fst
    |> List.filter (fun w -> not (Tid.equal w txn))
  in
  holders @ waiters

let acquire t ctx ~txn ~key ~mode ~granted ~aborted =
  (* Prevention policies act before queuing: with them, every wait edge
     points from an older to a younger transaction (wound-wait) or from a
     younger to an older one (wait-die), so no cycle can ever form. *)
  (match t.policy with
  | `Detect -> ()
  | `Wound_wait ->
      (* The older requester wounds younger parties out of its way. *)
      List.iter
        (fun other ->
          if Tid.older txn other then abort_internal t other ~deadlock:true)
        (blockers t ~txn ~key ~mode)
  | `Wait_die -> ());
  let die_instead_of_wait () =
    match t.policy with
    | `Wait_die ->
        (* A younger requester facing an older party dies. *)
        List.exists (fun other -> Tid.older other txn)
          (blockers t ~txn ~key ~mode)
    | `Detect | `Wound_wait -> false
  in
  if ctx.alive && die_instead_of_wait () then begin
    abort_internal t txn ~deadlock:true;
    aborted ()
  end
  else if not ctx.alive then aborted ()
  else
    match
      Rt_lock.Lock_table.acquire t.locks ~txn ~key ~mode ~on_grant:(fun () ->
          ctx.on_victim <- None;
          if ctx.alive then granted ())
    with
    | Granted -> granted ()
    | Waiting -> (
        ctx.on_victim <- Some aborted;
        match t.policy with
        | `Detect ->
            Rt_lock.Lock_table.resolve_deadlocks t.locks ~abort:(fun victim ->
                abort_internal t victim ~deadlock:true)
        | `Wound_wait | `Wait_die -> ())

let read t ~txn ~key ~k =
  match ctx_of t txn with
  | None -> k `Abort
  | Some ctx ->
  let granted () =
    let value =
      match Hashtbl.find_opt ctx.writes key with
      | Some v -> Some v
      | None ->
          let item = Kv.get t.kv key in
          Option.iter
            (fun h ->
              History.read h txn ~key ~version:(Kv.version t.kv key))
            t.history;
          Option.map (fun (i : Kv.item) -> i.value) item
    in
    k (`Value value)
  in
  acquire t ctx ~txn ~key ~mode:Shared ~granted ~aborted:(fun () -> k `Abort)

let write t ~txn ~key ~value ~k =
  match ctx_of t txn with
  | None -> k `Abort
  | Some ctx ->
  let granted () =
    Hashtbl.replace ctx.writes key value;
    k `Ok
  in
  acquire t ctx ~txn ~key ~mode:Exclusive ~granted ~aborted:(fun () ->
      k `Abort)

let commit t ~txn ~k =
  match ctx_of t txn with
  | None -> k `Aborted
  | Some ctx ->
  if not ctx.alive then k `Aborted
  else begin
    Rt_sim.Det.iter_sorted ~cmp:String.compare
      (fun key value ->
        let version = Kv.version t.kv key + 1 in
        Kv.set t.kv ~key ~value ~version;
        Option.iter (fun h -> History.write h txn ~key ~version) t.history)
      ctx.writes;
    t.stats.committed <- t.stats.committed + 1;
    Option.iter (fun h -> History.commit h txn) t.history;
    Rt_lock.Lock_table.release_all t.locks ~txn;
    forget t txn;
    k `Committed
  end

let abort t ~txn = abort_internal t txn ~deadlock:false
