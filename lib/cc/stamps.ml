(* Per-key timestamp-ordering state: read stamp, committed write stamp
   and pending writers, with the classical rules over them.  [None] is
   the initial stamp, older than every transaction. *)

open Rt_types
module Tid = Ids.Txn_id

type entry = {
  mutable rts : Tid.t option;
  mutable wts : Tid.t option;  (* committed *)
  mutable pending : Tid.t list;  (* uncommitted deferred writers *)
}

type t = {
  keys : (string, entry) Hashtbl.t;
  marks : string list Ids.Txn_map.t;
      (* Keys each transaction holds a pending mark on, so [release]
         visits only those. *)
}

let create () = { keys = Hashtbl.create 256; marks = Ids.Txn_map.create 16 }

let entry t key =
  match Hashtbl.find_opt t.keys key with
  | Some e -> e
  | None ->
      let e = { rts = None; wts = None; pending = [] } in
      Hashtbl.add t.keys key e;
      e

(* [txn] is older than the stamp. *)
let precedes txn = function None -> false | Some s -> Tid.older txn s

let read t ~txn ~key =
  let e = entry t key in
  if precedes txn e.wts || List.exists (fun p -> Tid.older p txn) e.pending
  then false
  else begin
    (match e.rts with
    | Some r when not (Tid.older r txn) -> ()
    | _ -> e.rts <- Some txn);
    true
  end

let write t ~txn ~key =
  let e = entry t key in
  if precedes txn e.rts || precedes txn e.wts then false
  else begin
    if not (List.exists (Tid.equal txn) e.pending) then begin
      e.pending <- txn :: e.pending;
      let held =
        Option.value ~default:[] (Ids.Txn_map.find_opt t.marks txn)
      in
      Ids.Txn_map.replace t.marks txn (key :: held)
    end;
    true
  end

let install t ~txn ~key =
  let e = entry t key in
  if precedes txn e.wts then false
  else begin
    e.wts <- Some txn;
    true
  end

let release t ~txn =
  match Ids.Txn_map.find_opt t.marks txn with
  | None -> ()
  | Some held ->
      Ids.Txn_map.remove t.marks txn;
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.keys key with
          | Some e ->
              e.pending <- List.filter (fun p -> not (Tid.equal p txn)) e.pending
          | None -> ())
        held

let pending_keys t ~txn =
  match Ids.Txn_map.find_opt t.marks txn with
  | None -> []
  | Some held -> List.sort String.compare held

let reset t =
  Hashtbl.reset t.keys;
  Ids.Txn_map.reset t.marks

let dump t =
  let stamp = function None -> "-" | Some txn -> Tid.to_string txn in
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.keys []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, e) ->
         Printf.sprintf "%s{r=%s;w=%s;p=%s};" k (stamp e.rts) (stamp e.wts)
           (String.concat ","
              (List.map Tid.to_string (List.sort Tid.compare e.pending))))
  |> String.concat ""
