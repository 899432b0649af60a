open Rt_types
open Protocol

type proto =
  | P_two_pc of Two_pc.variant
  | P_three_pc
  | P_quorum of { commit_quorum : int; abort_quorum : int }
  | P_paxos of { f : int }

let proto_name = function
  | P_two_pc v -> Two_pc.variant_name v
  | P_three_pc -> "3PC"
  | P_quorum { commit_quorum; abort_quorum } ->
      Printf.sprintf "QC(%d,%d)" commit_quorum abort_quorum
  | P_paxos { f } -> Printf.sprintf "Paxos(F=%d)" f

type outcome = {
  decisions : (Ids.site_id * decision) list;
  agreement : bool;
  all_decided : bool;
  messages : int;
  forced_writes : int;
  lazy_writes : int;
  blocked : bool;
  steps : int;
  timeouts_fired : int;
}

type machine = Erased.t

let wrap_2pc_coord = Erased.of_2pc_coord
let wrap_2pc_part = Erased.of_2pc_part
let wrap_3pc_coord = Erased.of_3pc_coord
let wrap_3pc_part = Erased.of_3pc_part
let wrap_qc_coord = Erased.of_qc_coord
let wrap_qc_part = Erased.of_qc_part
let wrap_paxos_coord = Erased.of_paxos_coord
let wrap_paxos_part = Erased.of_paxos_part
let finished_machine = Erased.finished

type mrole = Coord | Part

let mrole_rank = function Coord -> 0 | Part -> 1

(* Total order on timer keys so the enabled-timer list is a function of
   the timer set, not of hash-table layout. *)
let timer_key_compare (s1, r1, t1) (s2, r2, t2) =
  let c = Int.compare s1 s2 in
  if c <> 0 then c
  else
    let c = Int.compare (mrole_rank r1) (mrole_rank r2) in
    if c <> 0 then c else timer_compare t1 t2

type event =
  | Deliver of { src : Ids.site_id; dst : Ids.site_id; msg : msg }
  | Log_complete of { site : Ids.site_id; role : mrole; tag : log_tag }
  | Notice_down of { dst : Ids.site_id; down : Ids.site_id }
  | Kick of { site : Ids.site_id; role : mrole }  (* Start for recovery *)

type sim = {
  proto : proto;
  sites : int;
  votes : bool array;
  rng : Rt_sim.Rng.t option;  (* None = FIFO deterministic *)
  (* rt_lint: allow fingerprint-coverage -- self-contained protocol sandbox with its own crash-sweep harness; never part of the cluster the explorer digests *)
  mutable coord : machine option;  (* lives at site 0 *)
  parts : machine option array;
  mutable pending : event list;  (* in arrival order *)
  timers : (Ids.site_id * mrole * timer, unit) Hashtbl.t;
  durable : (Ids.site_id, log_tag list ref) Hashtbl.t;
  mutable crashed : bool array;
  mutable messages : int;
  mutable forced_writes : int;
  mutable lazy_writes : int;
  mutable blocked : bool;
  mutable timeouts_fired : int;
  mutable decisions_delivered : (Ids.site_id * decision) list;
  forgotten : bool array;  (* read-only participants that released *)
}

let coordinator_site = 0

let timeouts = Protocol.default_timeouts

let all_sites sim = List.init sim.sites (fun i -> i)

let paxos_config ~sites ~f =
  Paxos_commit.config
    ~all:(List.init sites (fun i -> i))
    ~coordinator:coordinator_site ~f ()

let make_coord proto ~sites =
  match proto with
  | P_two_pc variant ->
      wrap_2pc_coord
        (Two_pc.coordinator ~variant
           ~participants:(List.init sites (fun i -> i))
           ~timeouts)
  | P_three_pc ->
      wrap_3pc_coord
        (Three_pc.coordinator
           ~participants:(List.init sites (fun i -> i))
           ~timeouts)
  | P_quorum { commit_quorum; abort_quorum } ->
      let config =
        Quorum_commit.config
          ~all:(List.init sites (fun i -> i))
          ~commit_quorum ~abort_quorum ()
      in
      wrap_qc_coord
        (Quorum_commit.coordinator ~config ~self:coordinator_site ~timeouts)
  | P_paxos { f } ->
      wrap_paxos_coord
        (Paxos_commit.coordinator
           ~config:(paxos_config ~sites ~f)
           ~self:coordinator_site ~timeouts)

let make_part proto ~sites ~self ~vote ~read_only =
  let all = List.init sites (fun i -> i) in
  match proto with
  | P_two_pc variant ->
      wrap_2pc_part
        (Two_pc.participant ~read_only ~variant ~self
           ~coordinator:coordinator_site ~peers:all ~vote ~timeouts ())
  | P_three_pc ->
      wrap_3pc_part
        (Three_pc.participant ~self ~coordinator:coordinator_site ~all ~vote
           ~timeouts)
  | P_quorum { commit_quorum; abort_quorum } ->
      let config =
        Quorum_commit.config ~all ~commit_quorum ~abort_quorum ()
      in
      wrap_qc_part
        (Quorum_commit.participant ~config ~self
           ~coordinator:coordinator_site ~vote ~timeouts)
  | P_paxos { f } ->
      (* The participant co-located with the coordinator does not own an
         acceptor ([participant] gives it none): the coordinator machine
         holds site 0's acceptor, and ballots stay unique per machine. *)
      wrap_paxos_part
        (Paxos_commit.participant
           ~config:(paxos_config ~sites ~f)
           ~self ~vote ~timeouts)

let durable_tags sim site =
  match Hashtbl.find_opt sim.durable site with Some r -> !r | None -> []

let mark_durable sim site tag =
  match Hashtbl.find_opt sim.durable site with
  | Some r -> r := tag :: !r
  | None -> Hashtbl.add sim.durable site (ref [ tag ])

(* Route an incoming message to the coordinator or participant machine. *)
let routed_to_coord sim ~dst msg =
  dst = coordinator_site
  &&
  match sim.coord with
  | None -> false
  | Some coord -> (
      match msg with
      | Vote_yes | Vote_no | Vote_read_only | Decision_ack | Precommit_ack
      | Pq_precommit_ack _ | Pq_preabort_ack _ ->
          true
      | Px_p1a _ | Px_p2a _ | Px_p1b _ | Px_p2b _ | Px_nack _ ->
          (* Site 0's acceptor and any (r, 0) ballot leadership live in
             the coordinator machine; participant leaders never use
             ballot site 0.  With the coordinator gone the participant
             machine receives these and ignores them (it owns no
             acceptor at site 0). *)
          true
      | Decision_req ->
          (* A coordinator that knows the outcome (including by
             presumption after recovery) answers inquiries; otherwise the
             local participant does. *)
          coord.Erased.decision <> None
      | _ -> false)

let clear_timers_for sim site role =
  (* rt_lint: allow deterministic-iteration -- collects keys to delete; removal is order-insensitive *)
  Hashtbl.fold
    (fun (s, r, t) () acc -> if s = site && r = role then (s, r, t) :: acc else acc)
    sim.timers []
  |> List.iter (fun key -> Hashtbl.remove sim.timers key)

let rec interpret sim ~site ~role actions =
  List.iter
    (fun action ->
      match action with
      | Send (dst, msg) ->
          if dst <> site then sim.messages <- sim.messages + 1;
          if dst >= 0 && dst < sim.sites && not sim.crashed.(dst) then
            sim.pending <- sim.pending @ [ Deliver { src = site; dst; msg } ]
      | Log (tag, `Forced) ->
          sim.forced_writes <- sim.forced_writes + 1;
          sim.pending <- sim.pending @ [ Log_complete { site; role; tag } ]
      | Log (_, `Lazy) -> sim.lazy_writes <- sim.lazy_writes + 1
      | Deliver d ->
          if role = Part then
            sim.decisions_delivered <- (site, d) :: sim.decisions_delivered
      | Set_timer (t, _) -> Hashtbl.replace sim.timers (site, role, t) ()
      | Clear_timer t -> Hashtbl.remove sim.timers (site, role, t)
      | Blocked -> sim.blocked <- true
      | Forget ->
          if role = Part then sim.forgotten.(site) <- true)
    actions

and feed sim ~site ~role input =
  if not sim.crashed.(site) then
    match role with
    | Coord -> (
        match sim.coord with
        | Some m when site = coordinator_site ->
            let m', actions = m.Erased.step input in
            sim.coord <- Some m';
            interpret sim ~site ~role actions
        | _ -> ())
    | Part -> (
        match sim.parts.(site) with
        | Some m ->
            let m', actions = m.Erased.step input in
            sim.parts.(site) <- Some m';
            interpret sim ~site ~role actions
        | None -> ())

let crash sim site =
  if not sim.crashed.(site) then begin
    sim.crashed.(site) <- true;
    if site = coordinator_site then sim.coord <- None;
    sim.parts.(site) <- None;
    clear_timers_for sim site Coord;
    clear_timers_for sim site Part;
    (* Queued work for the site dies with it. *)
    sim.pending <-
      List.filter
        (function
          | Deliver { dst; _ } -> dst <> site
          | Log_complete { site = s; _ } -> s <> site
          | Notice_down { dst; _ } -> dst <> site
          | Kick { site = s; _ } -> s <> site)
        sim.pending;
    (* Failure detectors at the other sites notice. *)
    for other = 0 to sim.sites - 1 do
      if other <> site && not sim.crashed.(other) then
        sim.pending <- sim.pending @ [ Notice_down { dst = other; down = site } ]
    done
  end

let recover sim site =
  if sim.crashed.(site) then begin
    sim.crashed.(site) <- false;
    let tags = durable_tags sim site in
    let decided =
      List.find_map
        (function L_decision d -> Some d | _ -> None)
        tags
    in
    let all = all_sites sim in
    (match decided with
    | Some d -> sim.parts.(site) <- Some (finished_machine d)
    | None ->
        let has tag = List.mem tag tags in
        if has L_precommit || has L_preabort || has L_prepared then begin
          let state =
            if has L_precommit then P_precommitted
            else if has L_preabort then P_preaborted
            else P_uncertain
          in
          match sim.proto with
          | P_two_pc variant ->
              sim.parts.(site) <-
                Some
                  (wrap_2pc_part
                     (Two_pc.participant_recovered ~variant ~self:site
                        ~coordinator:coordinator_site ~peers:all ~timeouts))
          | P_three_pc ->
              sim.parts.(site) <-
                Some
                  (wrap_3pc_part
                     (Three_pc.participant_recovered ~self:site
                        ~coordinator:coordinator_site ~all ~state ~timeouts))
          | P_quorum { commit_quorum; abort_quorum } ->
              let config =
                Quorum_commit.config ~all ~commit_quorum ~abort_quorum ()
              in
              sim.parts.(site) <-
                Some
                  (wrap_qc_part
                     (Quorum_commit.participant_recovered ~config ~self:site
                        ~coordinator:coordinator_site ~state ~timeouts))
          | P_paxos { f } ->
              sim.parts.(site) <-
                Some
                  (wrap_paxos_part
                     (Paxos_commit.participant_recovered
                        ~config:(paxos_config ~sites:sim.sites ~f)
                        ~self:site ~state ~timeouts))
        end
        else
          (* Never prepared: the site may abort unilaterally. *)
          sim.parts.(site) <- Some (finished_machine Abort));
    sim.pending <- sim.pending @ [ Kick { site; role = Part } ];
    (* A recovered 2PC coordinator resumes from its log. *)
    if site = coordinator_site then
      match sim.proto with
      | P_two_pc variant ->
          let logged =
            match decided with
            | Some d -> `Decision d
            | None ->
                if List.mem L_collecting tags then `Collecting else `Nothing
          in
          sim.coord <-
            Some
              (wrap_2pc_coord
                 (Two_pc.coordinator_recovered ~variant ~participants:all
                    ~timeouts ~logged));
          sim.pending <- sim.pending @ [ Kick { site; role = Coord } ]
      | P_paxos { f } -> (
          let config = paxos_config ~sites:sim.sites ~f in
          match decided with
          | Some d ->
              sim.coord <-
                Some
                  (wrap_paxos_coord
                     (Paxos_commit.coordinator_recovered ~config
                        ~self:coordinator_site ~timeouts
                        ~logged:(`Decision d)));
              sim.pending <- sim.pending @ [ Kick { site; role = Coord } ]
          | None ->
              if f = 0 then begin
                (* Sole acceptor: nothing logged means nothing decided —
                   the 2PC-PrN abort presumption. *)
                sim.coord <-
                  Some
                    (wrap_paxos_coord
                       (Paxos_commit.coordinator_recovered ~config
                          ~self:coordinator_site ~timeouts ~logged:`Nothing));
                sim.pending <- sim.pending @ [ Kick { site; role = Coord } ]
              end
              (* F > 0: surviving acceptors may have chosen; the origin
                 must stay amnesiac and let the election terminate. *))
      | P_three_pc | P_quorum _ -> ()
  end

let process_event sim event =
  match event with
  | Deliver { src; dst; msg } ->
      let role = if routed_to_coord sim ~dst msg then Coord else Part in
      feed sim ~site:dst ~role (Recv (src, msg))
  | Log_complete { site; role; tag } ->
      mark_durable sim site tag;
      feed sim ~site ~role (Log_done tag)
  | Notice_down { dst; down } ->
      feed sim ~site:dst ~role:Coord (Peer_down down);
      feed sim ~site:dst ~role:Part (Peer_down down)
  | Kick { site; role } -> feed sim ~site ~role Start

let pick_event sim =
  match sim.pending with
  | [] -> None
  | events -> (
      match sim.rng with
      | None ->
          (* FIFO *)
          let ev = List.hd events in
          sim.pending <- List.tl events;
          Some ev
      | Some rng ->
          let n = List.length events in
          let idx = Rt_sim.Rng.int rng n in
          let ev = List.nth events idx in
          sim.pending <- List.filteri (fun i _ -> i <> idx) events;
          Some ev)

let fire_some_timer sim =
  let enabled =
    Hashtbl.fold (fun k () acc -> k :: acc) sim.timers []
    |> List.sort timer_key_compare
  in
  match enabled with
  | [] -> false
  | _ ->
      let site, role, t =
        match sim.rng with
        | None -> List.hd enabled
        | Some rng ->
            List.nth enabled (Rt_sim.Rng.int rng (List.length enabled))
      in
      Hashtbl.remove sim.timers (site, role, t);
      sim.timeouts_fired <- sim.timeouts_fired + 1;
      feed sim ~site ~role (Timeout t);
      true

let live_parts_decided sim =
  let ok = ref true in
  for s = 0 to sim.sites - 1 do
    if not sim.crashed.(s) && not sim.forgotten.(s) then
      match sim.parts.(s) with
      | Some m -> if m.Erased.decision = None then ok := false
      | None -> ()
  done;
  !ok

let run ?seed ?(crashes = []) ?(recoveries = []) ?(max_steps = 10_000)
    ?read_only ~proto ~sites ~votes () =
  if Array.length votes <> sites then
    invalid_arg "Sandbox.run: votes array size mismatch";
  let read_only =
    match read_only with
    | Some a when Array.length a = sites -> a
    | Some _ -> invalid_arg "Sandbox.run: read_only array size mismatch"
    | None -> Array.make sites false
  in
  let rng = Option.map (fun s -> Rt_sim.Rng.create ~seed:s) seed in
  let sim =
    {
      proto;
      sites;
      votes;
      rng;
      coord = Some (make_coord proto ~sites);
      parts =
        Array.init sites (fun i ->
            Some
              (make_part proto ~sites ~self:i ~vote:votes.(i)
                 ~read_only:read_only.(i)));
      pending = [];
      timers = Hashtbl.create 16;
      durable = Hashtbl.create 16;
      crashed = Array.make sites false;
      messages = 0;
      forced_writes = 0;
      lazy_writes = 0;
      blocked = false;
      timeouts_fired = 0;
      decisions_delivered = [];
      forgotten = Array.make sites false;
    }
  in
  feed sim ~site:coordinator_site ~role:Coord Start;
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    (* Scheduled crash/recovery points trigger on the step counter. *)
    List.iter (fun (s, k) -> if k = !steps then crash sim s) crashes;
    List.iter (fun (s, k) -> if k = !steps then recover sim s) recoveries;
    match pick_event sim with
    | Some ev ->
        incr steps;
        process_event sim ev
    | None ->
        if live_parts_decided sim then continue := false
        else if fire_some_timer sim then incr steps
        else continue := false
  done;
  let decisions =
    List.sort_uniq
      (fun (s1, d1) (s2, d2) ->
        let c = Int.compare s1 s2 in
        if c <> 0 then c else decision_compare d1 d2)
      sim.decisions_delivered
  in
  let agreement =
    match decisions with
    | [] -> true
    | (_, d0) :: rest -> List.for_all (fun (_, d) -> decision_equal d d0) rest
  in
  {
    decisions;
    agreement;
    all_decided = live_parts_decided sim;
    messages = sim.messages;
    forced_writes = sim.forced_writes;
    lazy_writes = sim.lazy_writes;
    blocked = sim.blocked;
    steps = !steps;
    timeouts_fired = sim.timeouts_fired;
  }

let run_fifo ~proto ~sites ~votes () = run ~proto ~sites ~votes ()
