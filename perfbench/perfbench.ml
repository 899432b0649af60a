(* The repository benchmark: three workloads, each run as repeated
   passes of a fixed, seeded unit of work.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A pass drives the workload's cluster slices (create, populate, start
   a closed-loop fleet, run a virtual window, stop, drain, audit), then
   its crash-sweep cases and explorer scenarios.  Passes repeat until
   [--seconds] of host time is used (at least two), and every pass of a
   run replays the same seeded simulation: the virtual metrics must come
   out byte-identical each time, and each timed part's host time is its
   median over the passes, in reference seconds (calib.ml).  With
   [--trace 1] the run adds spans around every call into the system and
   a stack sampler, and reports per-layer metrics instead.  The last
   line of stdout is one JSON object; the exit code is non-zero on any
   audit violation or determinism mismatch.  See README.md beside this
   file for every metric and the reasons behind each workload. *)

module Config = Rt_core.Config
module Cluster = Rt_core.Cluster
module Client = Rt_core.Client
module Site = Rt_core.Site
module Audit = Rt_core.Audit
module Mix = Rt_workload.Mix
module Sample = Rt_metrics.Sample
module Counter = Rt_metrics.Counter
module Crash_sweep = Rt_crash.Crash_sweep
module Explore = Rt_explore.Explore
module Sweep = Rt_explore.Sweep
module Placement = Rt_placement.Placement
module T = Rt_sim.Time

module Prof = Perfbench_support.Prof
module Explore_spans = Perfbench_support.Explore_spans
module Calib = Perfbench_support.Calib

let now = Prof.now

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type slice = {
  sl_name : string;
  sl_config : Config.t;
  sl_clients : int;
  sl_mix : Mix.t;
  sl_route_by_shard : bool;
}

type crash_spec = {
  cr_protocol : string * Config.commit_protocol;
  cr_n : int;
  cr_config : Crash_sweep.sweep_config;
}

type workload = {
  name : string;
  window : T.t;  (** Virtual measurement window of every cluster slice. *)
  slices : seed:int -> slice list;
  crash : crash_spec list;
  explore : (string * int) list;  (** Scenario name, execution budget. *)
  repeats : int;
      (** Runs of each crash case and explorer scenario per pass, the
          median counting: more than one where few passes fit a run. *)
}

(* The platform every cluster slice runs on: Exp(min 20 µs, mean 100 µs)
   links with an 80 µs per-envelope egress cost, and a 50 µs force. *)
let platform ~sites ~seed (name, commit_protocol) =
  let base = Config.default ~sites () in
  ( name,
    { base with commit_protocol; seed; link = { base.link with overhead = T.us 80 } } )

(* The "+gcb" tuning: WAL group commit and per-link batching. *)
let gcb (c : Config.t) =
  { c with group_commit_window = T.us 75; batch_window = Some (T.us 150) }

let slice ?(route_by_shard = false) ~clients ~mix (sl_name, sl_config) =
  { sl_name; sl_config; sl_clients = clients; sl_mix = mix; sl_route_by_shard = route_by_shard }

let protocol name =
  (name, List.assoc name Crash_sweep.default_protocols)

(* Crash-sweep configurations at size [n], as the sweep itself chooses
   them (sharded only from four sites up). *)
let crash_specs ~n ?(configs = Crash_sweep.default_configs) protocols =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun (cf : Crash_sweep.sweep_config) ->
          match cf.cf_choose n with
          | Crash_sweep.Skip -> None
          | Full | Sharded _ -> Some { cr_protocol = p; cr_n = n; cr_config = cf })
        configs)
    protocols

let probe_mix = { Mix.default with keys = 200; ops_per_txn = 2; read_fraction = 0.5 }

(* The collapse point: 256 clients on 200 keys under 2PC-PrA +gcb, where
   exclusive-write lock contention makes host cost per commit highest. *)
let hotspot =
  {
    name = "hotspot-256";
    window = T.ms 300;
    slices =
      (fun ~seed ->
        let name, c = platform ~sites:5 ~seed (protocol "2PC-PrA") in
        [ slice ~clients:256 ~mix:probe_mix ~route_by_shard:true (name, gcb c) ]);
    crash = crash_specs ~n:3 [ protocol "2PC-PrA" ];
    explore =
      [ ("2PC-PrA/conflict", 100); ("2PC-PrA/conflict+gcb", 100);
        ("2PC-PrA/crash+gcb", 100); ("2PC-PrA/full", 400) ];
    repeats = 5;
  }

(* Deadlock probes are on in every 8-client slice: with the 20 ms lock
   timeout as the only cure for distributed deadlocks, whether p99 falls
   inside the timeout mode changes from seed to seed. *)

(* The bypass workload for lock work: shared-lock reads over two shards,
   every protocol in turn, loading engine, net, WAL and commit paths. *)
let readmostly =
  let placement =
    Placement.create ~map:(Rt_placement.Shard_map.hash ~shards:2) ~sites:5 ~degree:3 ()
  in
  {
    name = "readmostly-sharded";
    window = T.ms 1500;
    slices =
      (fun ~seed ->
        List.map
          (fun p ->
            let name, c = platform ~sites:5 ~seed p in
            slice ~clients:8 ~mix:{ Mix.ycsb_b with ops_per_txn = 4 } ~route_by_shard:true
              (name, { c with placement = Some placement; probe_deadlocks = true }))
          Crash_sweep.default_protocols);
    crash =
      crash_specs ~n:5
        ~configs:
          (List.filter
             (fun (cf : Crash_sweep.sweep_config) -> cf.cf_name = "sharded")
             Crash_sweep.default_configs)
        Crash_sweep.default_protocols;
    explore = List.map (fun (p, _) -> (p ^ "/shard2", 100)) Sweep.protocols;
    repeats = 1;
  }

(* The harnesses users wait on: the N=3 crash sweep and an explorer
   slice with a capped Paxos/full, a crash and two conflict scenarios. *)
let verify =
  {
    name = "verify";
    window = T.ms 300;
    slices =
      (fun ~seed ->
        List.map
          (fun p ->
            let name, c = platform ~sites:3 ~seed p in
            slice ~clients:8 ~mix:probe_mix (name, { c with probe_deadlocks = true }))
          Crash_sweep.default_protocols);
    crash = crash_specs ~n:3 Crash_sweep.default_protocols;
    explore =
      [ ("Paxos/full", 300); ("2PC-PrC/crash", 5000); ("3PC/conflict", 100);
        ("QC/conflict", 100) ];
    repeats = 1;
  }

let workloads = [ hotspot; readmostly; verify ]

(* ------------------------------------------------------------------ *)
(* One pass                                                             *)
(* ------------------------------------------------------------------ *)

(* What a pass's host time is spent on.  The timed parts tile the pass,
   and every pass of a run times the same parts in the same order. *)
type kind = Setup | Run | Audit | Discover | Case | Explore_run | Gc_settle

type pass = {
  mutable parts : (kind * float) list;  (** Newest first, host seconds. *)
  mutable run_minor_words : float;
  mutable committed : int;
  mutable committed_in_window : int;
  mutable aborted : int;
  mutable retries : int;
  mutable latencies : Sample.t;
  mutable events : int;
  mutable envelopes : int;
  mutable msgs : int;
  mutable forces : int;
  mutable records : int;
  mutable protocol_msgs : int;
  mutable lock_timeouts : int;
  mutable deadlock_victims : int;
  mutable blocked_reports : int;
  mutable crash_cases : int;
  mutable executions : int;
  mutable transitions : int;
  mutable states : int;
  mutable dedup_hits : int;
  mutable major_collections : int;
  mutable violations : string list;
}

let new_pass () =
  {
    parts = []; run_minor_words = 0.; committed = 0; committed_in_window = 0;
    aborted = 0; retries = 0; latencies = Sample.create (); events = 0;
    envelopes = 0; msgs = 0; forces = 0; records = 0; protocol_msgs = 0;
    lock_timeouts = 0; deadlock_victims = 0; blocked_reports = 0;
    crash_cases = 0; executions = 0; transitions = 0; states = 0;
    dedup_hits = 0; major_collections = 0; violations = [];
  }

(* [f ()] under a span, with its host seconds; the speed calibration
   gets its turn first, outside the timed region. *)
let time name f =
  Calib.tick ();
  let t0 = now () in
  let r = Prof.span name f in
  (r, now () -. t0)

(* [f ()] run [n] times as one timed part of the pass: the median run
   counts, and the last run's result is returned. *)
let timed ?(n = 1) p kind name f =
  let runs = List.init n (fun _ -> time name f) in
  p.parts <- (kind, Calib.median (List.map snd runs)) :: p.parts;
  fst (List.nth runs (n - 1))

let violation p fmt = Format.kasprintf (fun s -> p.violations <- s :: p.violations) fmt

(* Set-up is cheap next to the run, so it is repeated and the median
   repeat kept, which steadies [setup_s]; every repeat builds an
   identical cluster from the same seed, and the last one is driven. *)
let setup_repeats = 30

(* The virtual window runs in this many chunks, each a timed part, so a
   burst of host contention in one pass is outvoted chunk by chunk. *)
let chunks = 60

let drain = T.ms 250
let settle = T.ms 100

let run_slice p ~window sl =
  let build () =
    let cluster = Prof.span "Cluster.create" (fun () -> Cluster.create sl.sl_config) in
    Prof.span "Cluster.populate" (fun () -> Cluster.populate cluster sl.sl_mix);
    let fleet =
      Prof.span "Client.start_fleet" (fun () ->
          Client.start_fleet ~cluster ~clients:sl.sl_clients ~mix:sl.sl_mix
            ~route_by_shard:sl.sl_route_by_shard ())
    in
    (cluster, fleet)
  in
  let cluster, fleet = timed ~n:setup_repeats p Setup "setup" build in
  let engine = Cluster.engine cluster in
  let ev0 = Rt_sim.Engine.processed engine and mw0 = Gc.minor_words () in
  let run until = timed p Run "Cluster.run" (fun () -> Cluster.run ~until cluster) in
  for i = 1 to chunks do
    run (window * i / chunks)
  done;
  p.committed_in_window <- p.committed_in_window + (Client.total fleet).committed;
  List.iter Client.stop fleet;
  run (T.add window drain);
  p.run_minor_words <- p.run_minor_words +. (Gc.minor_words () -. mw0);
  p.events <- p.events + (Rt_sim.Engine.processed engine - ev0);
  let stats = Client.total fleet in
  p.committed <- p.committed + stats.committed;
  p.aborted <- p.aborted + stats.aborted;
  p.retries <- p.retries + stats.retries;
  p.latencies <- Sample.merge p.latencies (Cluster.latencies cluster);
  let net = Cluster.net_stats cluster in
  p.envelopes <- p.envelopes + net.envelopes;
  p.msgs <- p.msgs + net.sent;
  let sites = Array.to_list (Cluster.sites cluster) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sites in
  p.forces <- p.forces + sum Site.wal_forces;
  p.records <- p.records + sum Site.log_length;
  let c = Cluster.counters cluster in
  p.protocol_msgs <- p.protocol_msgs + Counter.get c "commit_protocol_msgs";
  p.lock_timeouts <- p.lock_timeouts + Counter.get c "lock_timeouts";
  p.deadlock_victims <-
    p.deadlock_victims + Counter.get c "deadlock_victims" + Counter.get c "probe_deadlocks";
  p.blocked_reports <- p.blocked_reports + Counter.get c "blocked_reports";
  timed p Audit "Audit.standard" (fun () -> Audit.standard ~settle cluster)
  |> List.iter (violation p "%s: %a" sl.sl_name Audit.pp_violation)

(* The crash sweep's own case enumeration over the discovery stream:
   one case per occurrence of each announced point at a targeted site,
   plus every torn variant of a force-durable cycle when armed. *)
let role ~protocol site =
  match (protocol : Config.commit_protocol), site with
  | Paxos_commit _, 0 -> "leader"
  | Paxos_commit _, 1 -> "acceptor"
  | _, 0 -> "coordinator"
  | _ -> "participant"

let run_crash p ~seed ~repeats spec =
  let name, protocol = spec.cr_protocol and cf = spec.cr_config in
  let placement =
    match cf.cf_choose spec.cr_n with
    | Crash_sweep.Sharded pl -> Some pl
    | Full | Skip -> None
  in
  let stream =
    timed p Discover "Crash_sweep.discover" (fun () ->
        Crash_sweep.discover ?placement ~tune:cf.cf_tune ~protocol ~n:spec.cr_n ~seed ())
  in
  let occ = Hashtbl.create 32 in
  let cases =
    List.concat_map
      (fun (site, point, cycle) ->
        let k = 1 + Option.value (Hashtbl.find_opt occ (site, point)) ~default:0 in
        Hashtbl.replace occ (site, point) k;
        let base =
          { Crash_sweep.cs_protocol = name; cs_n = spec.cr_n; cs_placement = cf.cf_name;
            cs_site = site; cs_role = role ~protocol site; cs_point = point;
            cs_occurrence = k; cs_torn = None }
        in
        base
        :: (if cf.cf_torn && point = "wal:force-durable" && cycle > 0 then
              List.init cycle (fun j -> { base with cs_torn = Some j })
            else []))
      stream
  in
  List.iter
    (fun case ->
      p.crash_cases <- p.crash_cases + 1;
      timed ~n:repeats p Case "Crash_sweep.run_case" (fun () ->
          Crash_sweep.run_case ?placement ~tune:cf.cf_tune ~case ~protocol ~seed ())
      |> List.iter (violation p "%a" Crash_sweep.pp_violation))
    cases

let run_explore p ~repeats (scenario, budget) =
  let sc =
    match Sweep.find_scenario scenario with
    | Some sc -> sc
    | None -> failwith ("unknown explorer scenario " ^ scenario)
  in
  let opts = { (Sweep.opts_of sc ~sleep:true) with op_max_executions = budget } in
  let make = Sweep.make_sys sc in
  let make = if !Prof.enabled then Explore_spans.traced_sys make else make in
  let r =
    timed ~n:repeats p Explore_run "Explore.explore" (fun () -> Explore.explore ~opts make)
  in
  let st = r.r_stats in
  p.executions <- p.executions + st.st_executions;
  p.transitions <- p.transitions + st.st_transitions;
  p.states <- p.states + st.st_states;
  p.dedup_hits <- p.dedup_hits + st.st_dedup_hits;
  List.iter
    (fun (l : Explore.leaf_report) ->
      List.iter (fun (inv, d) -> violation p "%s: %s: %s" scenario inv d) l.lf_violations)
    r.r_violating

let run_pass w ~seed =
  let p = new_pass () in
  let majors0 = (Gc.quick_stat ()).major_collections in
  let slices = w.slices ~seed in
  (* Each part starts from a collected heap, so it pays for its own
     garbage and not for what the part before it left behind. *)
  let part f x =
    timed p Gc_settle "Gc.full_major" Gc.full_major;
    f x
  in
  List.iter (part (run_slice p ~window:w.window)) slices;
  List.iter (part (run_crash p ~seed ~repeats:w.repeats)) w.crash;
  part (List.iter (run_explore p ~repeats:w.repeats)) w.explore;
  p.major_collections <- (Gc.quick_stat ()).major_collections - majors0;
  p.violations <- List.rev p.violations;
  p

(* ------------------------------------------------------------------ *)
(* Host time across passes                                              *)
(* ------------------------------------------------------------------ *)

(* Every pass replays the same simulation, so part i of one pass is the
   same work as part i of any other.  Each part's host time is its
   median over the passes, in reference seconds (calib.ml); a pass is
   the sum of its parts. *)
let typical passes =
  let parts = List.map (fun p -> Array.of_list (List.rev p.parts)) passes in
  let first = List.hd parts in
  (* The parts follow from the seeded work alone, so passes with
     different parts have diverged. *)
  if List.exists (fun a -> Array.length a <> Array.length first) parts then
    failwith "DETERMINISM: passes ran different numbers of parts";
  let scale = Calib.scale () in
  Array.mapi
    (fun i (kind, _) -> (kind, scale *. Calib.median (List.map (fun a -> snd a.(i)) parts)))
    first

let seconds_of parts kinds =
  Array.fold_left (fun acc (k, t) -> if List.mem k kinds then acc +. t else acc) 0. parts

let total parts = Array.fold_left (fun acc (_, t) -> acc +. t) 0. parts

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The tail percentile: the highest of these with at least ten samples
   above its nearest-rank position. *)
let tail_percentile n =
  List.find_opt
    (fun q -> float_of_int n -. Float.ceil (q /. 100. *. float_of_int n) >= 10.)
    [ 99.; 95.; 90.; 75.; 50. ]

(* [Sample.percentile] sorts the samples in place, which changes the
   order [Sample.total] and [Sample.mean] add them in.  Sorting first
   makes every sum run over the sorted samples. *)
let sorted lat =
  if not (Sample.is_empty lat) then ignore (Sample.percentile lat 50.);
  lat

(* Everything the model decides, printed exactly: two passes of one
   seed must produce the same string. *)
let fingerprint p =
  let lat = sorted p.latencies in
  let n = Sample.count lat in
  let pct q = if n = 0 then 0. else Sample.percentile lat q in
  Printf.sprintf
    "committed=%d window=%d aborted=%d retries=%d lat_n=%d lat_sum=%h p50=%h \
     p95=%h p99=%h events=%d envelopes=%d msgs=%d forces=%d records=%d \
     proto_msgs=%d lock_timeouts=%d victims=%d blocked=%d cases=%d \
     executions=%d transitions=%d states=%d dedup=%d violations=%d"
    p.committed p.committed_in_window p.aborted p.retries n (Sample.total lat) (pct 50.)
    (pct 95.) (pct 99.) p.events p.envelopes p.msgs p.forces p.records
    p.protocol_msgs p.lock_timeouts p.deadlock_victims p.blocked_reports
    p.crash_cases p.executions p.transitions p.states p.dedup_hits
    (List.length p.violations)

let per_s count seconds = if seconds = 0. then 0. else float_of_int count /. seconds

let end_to_end w ~heap_mb passes =
  let p = List.hd passes and parts = typical passes in
  let lat = sorted p.latencies in
  let n = Sample.count lat in
  let slices = List.length (w.slices ~seed:0) in
  [
    ("setup_s", "s", seconds_of parts [ Setup ]);
    ("wall_s", "s", total parts);
    ("host_us_per_commit", "us", seconds_of parts [ Run ] *. 1e6 /. float_of_int p.committed);
    ("explore_execs_per_s", "1/s", per_s p.executions (seconds_of parts [ Explore_run ]));
    ("crash_cases_per_s", "1/s", per_s p.crash_cases (seconds_of parts [ Discover; Case ]));
    ("max_heap_mb", "MB", heap_mb);
    ( "committed_per_s", "txn/s",
      float_of_int p.committed_in_window /. (T.to_float_s w.window *. float_of_int slices) );
    ("mean_latency_ms", "ms", Sample.mean lat *. 1e3);
    ( "p99_latency_ms", "ms",
      Sample.percentile lat (Option.value (tail_percentile n) ~default:50.) *. 1e3 );
    ("commit_ratio", "ratio", ratio p.committed (p.committed + p.aborted));
  ]

(* The layers sampled, by [lib/] directory, and the modules given their
   own self share. *)
let layers =
  [ "lock"; "sim"; "net"; "storage"; "commit"; "core"; "explore"; "crash";
    "member"; "replica"; "placement"; "workload"; "metrics"; "types" ]

let modules =
  [ ("lock.wfg_self_share", "lock/wfg"); ("lock.lock_table_self_share", "lock/lock_table");
    ("core.site_self_share", "core/site"); ("core.client_self_share", "core/client");
    ("sim.engine_self_share", "sim/engine"); ("sim.heap_self_share", "sim/heap");
    ("storage.wal_self_share", "storage/wal"); ("explore.sweep_self_share", "explore/sweep") ]

(* Counts and host seconds come from the untraced passes; shares and
   span ratios from the traced ones. *)
let per_layer ~untraced ~traced ~profile ~totals =
  let base = List.hd untraced and parts = typical untraced in
  let secs kinds = seconds_of parts kinds in
  let span = Prof.total_of totals in
  let explore_s = span "Explore.explore" in
  let of_explore x = if explore_s = 0. then 0. else x /. explore_s in
  let wrapped =
    span "Sweep.make_sys" +. span "sys.ys_digest" +. span "sys.ys_drain" +. span "sys.ys_audit"
  in
  let per_commit x = ratio x base.committed in
  let us_per count seconds = if count = 0 then 0. else seconds *. 1e6 /. float_of_int count in
  List.concat_map
    (fun l ->
      [ (l ^ ".self_share", "ratio", Prof.layer_self_share profile l);
        (l ^ ".incl_share", "ratio", Prof.incl_share profile l) ])
    layers
  @ List.map (fun (name, key) -> (name, "ratio", Prof.self_share profile key)) modules
  @ [
      ("outside.self_share", "ratio", Prof.self_share profile "outside");
      ("trace.samples", "count", float_of_int profile.Prof.total);
      ("trace.overhead_s", "s", total (typical traced) -. total parts);
      ("lock.timeouts_per_commit", "count", per_commit base.lock_timeouts);
      ("lock.deadlock_victims", "count", float_of_int base.deadlock_victims);
      ("sim.events_per_commit", "count", per_commit base.events);
      ("sim.events_per_s", "1/s", per_s base.events (secs [ Run ]));
      ("sim.minor_words_per_event", "words", base.run_minor_words /. float_of_int (max 1 base.events));
      ("net.envelopes_per_commit", "count", per_commit base.envelopes);
      ("net.msgs_per_commit", "count", per_commit base.msgs);
      ("wal.forces_per_commit", "count", per_commit base.forces);
      ("wal.records_per_force", "count", ratio base.records base.forces);
      ("commit.protocol_msgs_per_commit", "count", per_commit base.protocol_msgs);
      ("commit.blocked_reports", "count", float_of_int base.blocked_reports);
      ("core.audit_s", "s", secs [ Audit ]);
      ("core.retries_per_commit", "count", per_commit base.retries);
      ("core.abort_ratio", "ratio", ratio base.aborted (base.committed + base.aborted));
      ("latency.samples", "count", float_of_int (Sample.count base.latencies));
      ( "latency.tail_percentile", "pct",
        Option.value (tail_percentile (Sample.count base.latencies)) ~default:50. );
      ("explore.executions", "count", float_of_int base.executions);
      ("explore.states", "count", float_of_int base.states);
      ("explore.dedup_hit_ratio", "ratio", ratio base.dedup_hits (base.dedup_hits + base.states));
      ("explore.digest_share", "ratio", of_explore (span "sys.ys_digest"));
      ("explore.make_sys_share", "ratio", of_explore (span "Sweep.make_sys"));
      ("explore.replay_share", "ratio", if explore_s = 0. then 0. else 1. -. of_explore wrapped);
      ("explore.us_per_transition", "us", us_per base.transitions (secs [ Explore_run ]));
      ("crash.cases", "count", float_of_int base.crash_cases);
      ("crash.discover_s", "s", secs [ Discover ]);
      ("crash.us_per_case", "us", us_per base.crash_cases (secs [ Case ]));
      ("gc.minor_words_per_commit", "words", base.run_minor_words /. float_of_int (max 1 base.committed));
      ("gc.major_collections", "count", float_of_int base.major_collections);
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Passes until [deadline], at least [min_passes]; a pass is not started
   when the longest one so far would overrun.  [run i] runs pass [i]. *)
let run_passes ~run ~deadline ~min_passes =
  let rec go acc longest =
    if List.length acc >= min_passes && now () +. longest > deadline then List.rev acc
    else begin
      let p = run (List.length acc) in
      let parts = Array.of_list p.parts in
      let wall = total parts and secs kinds = seconds_of parts kinds in
      Printf.printf
        "pass %d: wall %.3fs setup %.4fs run %.3fs crash %.3fs explore %.3fs commits %d \
         cases %d executions %d violations %d\n%!"
        (List.length acc + 1) wall (secs [ Setup ]) (secs [ Run ]) (secs [ Discover; Case ])
        (secs [ Explore_run ]) p.committed p.crash_cases p.executions
        (List.length p.violations);
      go (p :: acc) (Float.max longest wall)
    end
  in
  go [] 0.

let usage () =
  prerr_endline
    "usage: perfbench --workload (hotspot-256|readmostly-sharded|verify) --seed N \
     --seconds S [--trace 0|1]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k ~default =
    match get k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let w =
    match get "workload" with
    | Some n -> (
        match List.find_opt (fun w -> w.name = n) workloads with
        | Some w -> w
        | None -> usage ())
    | None -> usage ()
  in
  let seed = int "seed" ~default:1 and seconds = int "seconds" ~default:10 in
  let trace = int "trace" ~default:0 = 1 in
  let deadline = now () +. float_of_int seconds in
  Printf.printf "workload %s, seed %d, %d s, trace %b\n%!" w.name seed seconds trace;
  let passes, metrics =
    if not trace then begin
      (* The first pass starts from a fresh heap, so the top of the heap
         after it is one pass's peak. *)
      let heap_mb = ref 0. in
      let run i =
        let p = run_pass w ~seed in
        if i = 0 then heap_mb := mb_of_words (Gc.quick_stat ()).top_heap_words;
        p
      in
      let passes = run_passes ~run ~deadline ~min_passes:2 in
      (passes, end_to_end w ~heap_mb:!heap_mb passes)
    end
    else begin
      (* Untraced and traced passes alternate, so both sides of the
         tracing overhead get as many repetitions; the untraced ones also
         give the counts, the traced ones the shares and spans. *)
      let samples = ref [] in
      let run i =
        if i mod 2 = 0 then run_pass w ~seed
        else begin
          Prof.enable true;
          Prof.start_sampler ();
          let p = run_pass w ~seed in
          samples := Prof.stop_sampler () :: !samples;
          Prof.enable false;
          p
        end
      in
      let passes = run_passes ~run ~deadline ~min_passes:2 in
      let untraced = List.filteri (fun i _ -> i mod 2 = 0) passes in
      let traced = List.filteri (fun i _ -> i mod 2 = 1) passes in
      let totals = Prof.span_totals (Prof.spans ()) in
      Hashtbl.fold (fun name t acc -> (name, t) :: acc) totals []
      |> List.sort compare
      |> List.iter (fun (name, (t : Prof.span_total)) ->
             Printf.printf "span %-24s calls %8d total %9.3fs self %9.3fs\n" name t.calls
               t.total_s t.self_s);
      let profile = Prof.attribute ~root:"lib/" (List.concat !samples) in
      (passes, per_layer ~untraced ~traced ~profile ~totals)
    end
  in
  Printf.printf "calibration: %d kernel runs, median %.4f ms, %.3f reference s per host s\n"
    (List.length !Calib.times) (Calib.median_s () *. 1e3) (Calib.scale ());
  let first = List.hd passes in
  let fp = fingerprint first in
  Printf.printf "virtual: %s\n" fp;
  let mismatches =
    List.length (List.filter (fun p -> not (String.equal (fingerprint p) fp)) passes)
  in
  if mismatches > 0 then
    Printf.printf "DETERMINISM: %d pass(es) differ from the first\n" mismatches;
  let violations = List.concat_map (fun p -> p.violations) passes in
  List.iter (Printf.printf "VIOLATION %s\n") violations;
  let lat = first.latencies in
  let n = Sample.count lat in
  let tail = Option.value (tail_percentile n) ~default:50. in
  if n > 0 then
    Printf.printf "latency: %d samples, p50 %.4f ms, p%g %.4f ms\n" n
      (Sample.percentile lat 50. *. 1e3) tail (Sample.percentile lat tail *. 1e3);
  let attempted =
    List.fold_left
      (fun acc p -> acc + p.committed + p.aborted + p.crash_cases + p.executions)
      0 passes
  in
  let failed = List.length violations + mismatches in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
