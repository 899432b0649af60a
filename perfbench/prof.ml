(* Host-side tracing for the benchmark: spans around calls into the
   system, and a SIGPROF stack sampler that attributes host CPU time to
   source modules.  Spans are recorded only after [enable true], so
   untraced runs pay one branch per span; the sampler runs between
   [start_sampler] and [stop_sampler]. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let finished : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let enable on = enabled := on

let reset_spans () =
  finished := [];
  open_ids := [];
  next_id := 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = now () in
    let close () =
      open_ids := List.tl !open_ids;
      finished := { id; parent; name; start; stop = now () } :: !finished
    in
    Fun.protect ~finally:close f
  end

let spans () = List.rev !finished

type span_total = { calls : int; total_s : float; self_s : float }

(* Per-name call count, total and self time.  Spans nest strictly (one
   thread), so a span's self time is its duration minus its direct
   children's durations. *)
let span_totals spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (s.stop -. s.start
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.))
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
      let t =
        Option.value (Hashtbl.find_opt totals s.name)
          ~default:{ calls = 0; total_s = 0.; self_s = 0. }
      in
      Hashtbl.replace totals s.name
        { calls = t.calls + 1; total_s = t.total_s +. d; self_s = t.self_s +. self })
    spans;
  totals

let total_of totals name =
  match Hashtbl.find_opt totals name with Some t -> t.total_s | None -> 0.

(* ------------------------------------------------------------------ *)
(* Stack sampler                                                        *)
(* ------------------------------------------------------------------ *)

(* SIGPROF fires on process CPU time.  OCaml runs the handler at the
   next poll point of the interrupted code, so the handler's own call
   stack is the sampled stack. *)
let samples : Printexc.raw_backtrace list ref = ref []

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

(* Linux rounds the timer up to its scheduler tick (commonly 4 ms), so
   asking for 1 ms means a sample per tick. *)
let sample_interval = 0.001

let start_sampler () =
  samples := [];
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle
       (fun _ -> samples := Printexc.get_callstack 256 :: !samples));
  set_timer sample_interval

let stop_sampler () =
  set_timer 0.;
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  let s = List.rev !samples in
  samples := [];
  s

(* The module key of a source file under [root]: "lib/lock/wfg.ml" with
   root "lib/" is "lock/wfg".  Files elsewhere have no key. *)
let module_key ~root file =
  let n = String.length root in
  if String.length file > n && String.sub file 0 n = root
     && Filename.check_suffix file ".ml"
  then Some (Filename.chop_suffix (String.sub file n (String.length file - n)) ".ml")
  else None

let layer_of key =
  match String.index_opt key '/' with Some i -> String.sub key 0 i | None -> key

type profile = {
  total : int;  (** Samples taken. *)
  self : (string, int) Hashtbl.t;
      (** Module key → samples whose innermost keyed frame is in it;
          ["outside"] when no frame on the stack has a key. *)
  incl : (string, int) Hashtbl.t;
      (** Layer → samples with at least one frame of that layer on the
          stack. *)
}

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let attribute ~root raws =
  let self = Hashtbl.create 32 and incl = Hashtbl.create 16 in
  List.iter
    (fun raw ->
      let keys =
        match Printexc.backtrace_slots raw with
        | None -> []
        | Some slots ->
            (* The first frame is the signal handler itself. *)
            (match Array.to_list slots with _ :: rest -> rest | [] -> [])
            |> List.filter_map (fun slot ->
                   Option.bind (Printexc.Slot.location slot) (fun (l : Printexc.location) ->
                       module_key ~root l.filename))
      in
      bump self (match keys with k :: _ -> k | [] -> "outside");
      List.sort_uniq String.compare (List.map layer_of keys) |> List.iter (bump incl))
    raws;
  { total = List.length raws; self; incl }

let share p n = if p.total = 0 then 0. else float_of_int n /. float_of_int p.total

let self_share p key = share p (Option.value (Hashtbl.find_opt p.self key) ~default:0)

let layer_self_share p layer =
  share p
    (Hashtbl.fold (fun k n acc -> if layer_of k = layer then acc + n else acc) p.self 0)

let incl_share p layer = share p (Option.value (Hashtbl.find_opt p.incl layer) ~default:0)
