open Rt_types
module Tid = Ids.Txn_id

type mode = Shared | Exclusive

let pp_mode fmt = function
  | Shared -> Format.pp_print_string fmt "S"
  | Exclusive -> Format.pp_print_string fmt "X"

type request = {
  txn : Tid.t;
  mode : mode;
  upgrade : bool;  (* txn already holds Shared on this key *)
  on_grant : unit -> unit;
}

type entry = {
  mutable holders : (Tid.t * mode) list;
  mutable waiting : request list;  (* FIFO order: head is next candidate *)
}

type t = {
  table : (string, entry) Hashtbl.t;
  held : string list ref Ids.Txn_map.t;  (* txn -> keys it holds *)
  waits : string list ref Ids.Txn_map.t;  (* txn -> keys it waits on *)
  dirty : unit Ids.Txn_map.t;
      (* txns that queued a request since the last check that found no
         cycle: every cycle in the wait-for graph passes through one *)
}

type outcome = Granted | Waiting

let create () =
  {
    table = Hashtbl.create 256;
    held = Ids.Txn_map.create 64;
    waits = Ids.Txn_map.create 64;
    dirty = Ids.Txn_map.create 16;
  }

let entry_for t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
      let e = { holders = []; waiting = [] } in
      Hashtbl.add t.table key e;
      e

let index_add map txn key =
  match Ids.Txn_map.find_opt map txn with
  | Some r -> r := key :: !r
  | None -> Ids.Txn_map.replace map txn (ref [ key ])

(* Remove ONE occurrence only: a transaction can have several requests
   queued on the same key (duplicate network deliveries), and each keeps
   its own index entry.  Filtering every occurrence here would blind
   [release_all] to the survivors, which can then be spuriously granted
   to an already-dead transaction during its own release — a permanent
   lock leak. *)
let index_remove map txn key =
  match Ids.Txn_map.find_opt map txn with
  | Some r ->
      let rec drop_one = function
        | [] -> []
        | k :: rest -> if k = key then rest else k :: drop_one rest
      in
      r := drop_one !r;
      if !r = [] then Ids.Txn_map.remove map txn
  | None -> ()

(* A holder entry of the requester itself never conflicts: duplicate
   deliveries of the same operation must not queue behind (and time out
   on) their own first copy. *)
let compatible ~txn mode holders =
  match mode with
  | Shared ->
      List.for_all (fun (h, m) -> Tid.equal h txn || m = Shared) holders
  | Exclusive -> List.for_all (fun (h, _) -> Tid.equal h txn) holders

(* Can [r] be granted right now given [e]'s holders?  An upgrade is
   grantable when the requester is the only holder. *)
let grantable e r =
  if r.upgrade then
    match e.holders with [ (h, Shared) ] -> Tid.equal h r.txn | _ -> false
  else compatible ~txn:r.txn r.mode e.holders

let do_grant t key e r =
  if r.upgrade then e.holders <- [ (r.txn, Exclusive) ]
  else
    let mine, others =
      List.partition (fun (h, _) -> Tid.equal h r.txn) e.holders
    in
    match mine with
    | [] ->
        e.holders <- (r.txn, r.mode) :: others;
        index_add t.held r.txn key
    | _ ->
        (* Already a holder (duplicate delivery, or an S and an X request
           that were queued together): keep a single entry at the
           strongest mode and leave the held index alone — a second
           entry per (txn, key) would desync it. *)
        let strongest =
          if r.mode = Exclusive || List.exists (fun (_, m) -> m = Exclusive) mine
          then Exclusive
          else Shared
        in
        e.holders <- (r.txn, strongest) :: others

(* After holders change, grant a maximal compatible prefix of the queue.
   Returns the granted requests in order; callbacks are the caller's to
   fire (after state is consistent). *)
let promote t key e =
  let granted = ref [] in
  let rec go () =
    match e.waiting with
    | r :: rest when grantable e r ->
        e.waiting <- rest;
        index_remove t.waits r.txn key;
        do_grant t key e r;
        granted := r :: !granted;
        go ()
    | _ -> ()
  in
  go ();
  List.rev !granted

let fire granted = List.iter (fun r -> r.on_grant ()) granted

let holds t ~txn ~key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e -> (
      match List.filter (fun (h, _) -> Tid.equal h txn) e.holders with
      | [] -> None
      | held ->
          if List.exists (fun (_, m) -> m = Exclusive) held then Some Exclusive
          else Some Shared)

let acquire t ~txn ~key ~mode ~on_grant =
  let e = entry_for t key in
  match holds t ~txn ~key with
  | Some Exclusive -> Granted
  | Some Shared when mode = Shared -> Granted
  | Some Shared ->
      (* Upgrade request. *)
      let r = { txn; mode = Exclusive; upgrade = true; on_grant } in
      if grantable e r && e.waiting = [] then begin
        do_grant t key e r;
        Granted
      end
      else begin
        (* Upgrades go to the front: nothing behind the current holders can
           be granted before the upgrade anyway, and queue-jumping avoids
           an immediate deadlock with ordinary waiters. *)
        e.waiting <- r :: e.waiting;
        index_add t.waits txn key;
        Ids.Txn_map.replace t.dirty txn ();
        Waiting
      end
  | None ->
      let r = { txn; mode; upgrade = false; on_grant } in
      if e.waiting = [] && grantable e r then begin
        do_grant t key e r;
        Granted
      end
      else begin
        e.waiting <- e.waiting @ [ r ];
        index_add t.waits txn key;
        Ids.Txn_map.replace t.dirty txn ();
        Waiting
      end

let release_all t ~txn =
  (* Remove queued requests first so they cannot be spuriously granted.
     Dropping a queued request can itself unblock compatible waiters that
     were queued behind it (e.g. readers behind a cancelled writer), so
     these keys must be re-promoted too. *)
  let waited_keys =
    match Ids.Txn_map.find_opt t.waits txn with
    | None -> []
    | Some keys ->
        List.iter
          (fun key ->
            match Hashtbl.find_opt t.table key with
            | None -> ()
            | Some e ->
                e.waiting <-
                  List.filter (fun r -> not (Tid.equal r.txn txn)) e.waiting)
          !keys;
        Ids.Txn_map.remove t.waits txn;
        !keys
  in
  (* With nothing held or queued, [txn] has no wait-for edges left. *)
  Ids.Txn_map.remove t.dirty txn;
  (* Then drop held locks and promote waiters. *)
  let held_keys =
    match Ids.Txn_map.find_opt t.held txn with
    | None -> []
    | Some keys ->
        Ids.Txn_map.remove t.held txn;
        !keys
  in
  let all_granted =
    List.concat_map
      (fun key ->
        match Hashtbl.find_opt t.table key with
        | None -> []
        | Some e ->
            e.holders <-
              List.filter (fun (h, _) -> not (Tid.equal h txn)) e.holders;
            let granted = promote t key e in
            if e.holders = [] && e.waiting = [] then Hashtbl.remove t.table key;
            granted)
      (List.sort_uniq String.compare (held_keys @ waited_keys))
  in
  fire all_granted

let holders t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some e -> List.rev e.holders

let waiters t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some e -> List.map (fun r -> (r.txn, r.mode)) e.waiting

let is_waiting t ~txn = Ids.Txn_map.mem t.waits txn

let held_keys t ~txn =
  match Ids.Txn_map.find_opt t.held txn with
  | None -> []
  | Some keys -> List.sort_uniq String.compare !keys

let conflicts a b =
  match (a, b) with Shared, Shared -> false | _ -> true

(* Apply [f] to each transaction that request [r] on entry [e] must
   out-wait: incompatible holders, then incompatible requests queued
   ahead of it (FIFO).  Never [r]'s own transaction. *)
let iter_waits_for e r f =
  List.iter
    (fun (h, m) -> if (not (Tid.equal h r.txn)) && conflicts r.mode m then f h)
    e.holders;
  let rec ahead = function
    | r' :: rest when r' != r ->
        if (not (Tid.equal r'.txn r.txn)) && conflicts r.mode r'.mode then
          f r'.txn;
        ahead rest
    | _ -> ()
  in
  ahead e.waiting

(* Apply [f] to [txn]'s queued requests, [first_only] stopping at its
   first request on each key. *)
let iter_requests t txn ~first_only f =
  match Ids.Txn_map.find_opt t.waits txn with
  | None -> ()
  | Some keys ->
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.table key with
          | None -> ()
          | Some e ->
              let rec walk = function
                | [] -> ()
                | r :: rest ->
                    if Tid.equal r.txn txn then begin
                      f e r;
                      if not first_only then walk rest
                    end
                    else walk rest
              in
              walk e.waiting)
        !keys

let blocking t ~txn =
  let acc = ref [] in
  iter_requests t txn ~first_only:true (fun e r ->
      iter_waits_for e r (fun b -> acc := b :: !acc));
  List.sort_uniq Tid.compare !acc

let wait_for_graph t =
  let g = Wfg.create () in
  (* Sorted keys: edge insertion order feeds victim selection. *)
  Rt_sim.Det.iter_sorted ~cmp:String.compare
    (fun _key e ->
      List.iter (fun r -> iter_waits_for e r (Wfg.add_edge g r.txn)) e.waiting)
    t.table;
  g

(* Is some cycle reachable from a dirty transaction?  Grey/black DFS over
   successors computed on demand, so the cost is the part of the graph
   the new waiters can reach, not the whole table. *)
let dirty_reaches_cycle t =
  let black = Ids.Txn_map.create 16 in  (* false: grey, on the DFS path *)
  let exception Cycle in
  let rec visit txn =
    match Ids.Txn_map.find_opt black txn with
    | Some true -> ()
    | Some false -> raise Cycle
    | None ->
        Ids.Txn_map.replace black txn false;
        (* Every queued request counts, not just the first as in
           [blocking]: these are exactly [wait_for_graph]'s edges. *)
        iter_requests t txn ~first_only:false (fun e r ->
            iter_waits_for e r visit);
        Ids.Txn_map.replace black txn true
  in
  try
    Ids.Txn_map.fold (fun txn () acc -> txn :: acc) t.dirty []
    |> List.sort Tid.compare |> List.iter visit;
    false
  with Cycle -> true

let detect_deadlock ?policy t =
  if Ids.Txn_map.length t.dirty = 0 || not (dirty_reaches_cycle t) then begin
    Ids.Txn_map.reset t.dirty;
    None
  end
  else
    (* The victim comes from the full graph, exactly as without the
       scoped check; the dirty set stays until a check finds no cycle. *)
    match Wfg.find_cycle (wait_for_graph t) with
    | None -> None
    | Some cycle -> Some (Wfg.victim ?policy cycle)

let locked_keys t = Hashtbl.length t.table

let unchecked_waiters t = Ids.Txn_map.length t.dirty

let dump t =
  Hashtbl.fold
    (fun key e acc -> (key, List.rev e.holders, List.map (fun r -> (r.txn, r.mode)) e.waiting) :: acc)
    t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
