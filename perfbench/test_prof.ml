(* Self-test of the benchmark's tracing: the stack sampler attributes a
   busy loop to the module that runs it, and the spans wrapped around
   explorer closures nest inside their Explore.explore span. *)

module Prof = Perfbench_support.Prof
module Sweep = Rt_explore.Sweep
module Explore = Rt_explore.Explore

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let sampler_finds_busy_loop () =
  Prof.start_sampler ();
  ignore (Sys.opaque_identity (Busy.spin 0.4));
  let profile = Prof.attribute ~root:"perfbench/" (Prof.stop_sampler ()) in
  let share = Prof.self_share profile "busy" in
  Printf.printf "sampler: %d samples, %.3f in busy.ml\n" profile.total share;
  if profile.total < 20 then fail "sampler: only %d samples in 0.4 s of CPU" profile.total;
  if share < 0.5 then fail "sampler: busy.ml got %.3f of the samples" share

let wrapped_spans_nest () =
  let sc = Option.get (Sweep.find_scenario "2PC-PrA/conflict") in
  Prof.reset_spans ();
  Prof.enable true;
  let r =
    Prof.span "Explore.explore" (fun () ->
        Explore.explore ~opts:(Sweep.opts_of sc ~sleep:true)
          (Perfbench_support.Explore_spans.traced_sys (Sweep.make_sys sc)))
  in
  Prof.enable false;
  let spans = Prof.spans () in
  let roots = List.filter (fun (s : Prof.span) -> s.name = "Explore.explore") spans in
  let root = match roots with [ s ] -> s | _ -> fail "spans: %d explore spans" (List.length roots) in
  let children = List.filter (fun (s : Prof.span) -> s.parent = root.id) spans in
  let wrapped = List.fold_left (fun acc (s : Prof.span) -> acc +. (s.stop -. s.start)) 0. children in
  let explore = root.stop -. root.start in
  let count name = List.length (List.filter (fun (s : Prof.span) -> s.name = name) children) in
  Printf.printf "spans: %d executions, %d children, wrapped %.6fs of %.6fs\n"
    r.r_stats.st_executions (List.length children) wrapped explore;
  if count "Sweep.make_sys" <> r.r_stats.st_executions then
    fail "spans: %d make_sys spans for %d executions" (count "Sweep.make_sys")
      r.r_stats.st_executions;
  List.iter
    (fun name -> if count name = 0 then fail "spans: no %s span" name)
    [ "sys.ys_start"; "sys.ys_digest"; "sys.ys_drain"; "sys.ys_audit" ];
  if wrapped > explore then fail "spans: wrapped %.6fs exceeds explore %.6fs" wrapped explore;
  let totals = Prof.span_totals spans in
  let self = (Hashtbl.find totals "Explore.explore").self_s in
  if Float.abs (self -. (explore -. wrapped)) > 1e-9 then
    fail "spans: explore self %.6fs, expected %.6fs" self (explore -. wrapped)

let () =
  sampler_finds_busy_loop ();
  wrapped_spans_nest ()
