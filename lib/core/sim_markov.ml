module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Probe = P2p_obs.Probe
module Hist = P2p_obs.Hist

type config = {
  params : Params.t;
  policy : Policy.t;
  initial : (Pieceset.t * int) list;
  faults : Faults.t;
}

let default_config params =
  { params; policy = Policy.random_useful; initial = []; faults = Faults.none }

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;
  completions : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  visits_to_empty : int;
  truncated : bool;
  stopped : bool;
  outage_time : float;
  aborted_peers : int;
  lost_transfers : int;
  samples : (float * int) array;
}

(* One contact resolution: [uploader] tries to push a piece to
   [downloader].  Returns true iff the state changed.  [probe] only ever
   receives events here (never randomness or state), so a [Probe.none]
   run takes the exact same draws in the exact same order.  [seeds]
   mirrors [State.count state full] incrementally so [total_rate] never
   pays a hash lookup per event. *)
let resolve_contact ~rng ~frun ~(p : Params.t) ~policy ~state ~uploader ~downloader ~seeds
    ~(counters : Engine.counters) ~probe ~time =
  let tracing = probe.Probe.tracing in
  let is_seed = match uploader with Policy.Fixed_seed -> true | Policy.Peer _ -> false in
  let choice = Policy.sample policy ~rng ~k:p.k ~state ~uploader ~downloader in
  if tracing then
    Probe.contact probe ~time ~seed:is_seed ~useful:(Option.is_some choice);
  match choice with
  | None -> false
  | Some _ when Faults.lost frun ->
      (* The upload happened but the piece never arrived. *)
      counters.lost <- counters.lost + 1;
      if tracing then Probe.transfer_lost probe ~time;
      false
  | Some piece ->
      counters.transfers <- counters.transfers + 1;
      let target = Pieceset.add piece downloader in
      let full = Params.full_set p in
      let completed = Pieceset.equal target full in
      if tracing then Probe.transfer probe ~time ~piece ~completed;
      if completed then begin
        counters.completions <- counters.completions + 1;
        if Params.immediate_departure p then begin
          State.remove_peer state downloader;
          counters.departures <- counters.departures + 1;
          if tracing then Probe.departure probe ~time Completed
        end
        else begin
          State.move_peer state ~from_:downloader ~to_:target;
          incr seeds
        end
      end
      else State.move_peer state ~from_:downloader ~to_:target;
      true

(* Rate bands, stashed by [total_rate] for [apply]'s dispatch.  A
   float-only record is stored flat, so the per-event stash never boxes. *)
type bands = {
  arrival : float;
  mutable seed_contact : float;
  mutable peer_contact : float;
  mutable abort : float;
}

let run ?(probe = Probe.none) ?observer ?sample_every ?max_events ?resume ?until ~rng config
    ~horizon =
  let p = config.params in
  let common, (state, visits_to_empty) =
    Engine.drive ~probe ?sample_every ?max_events ?resume ~name:"sim_markov" ~rng
      ~faults:config.faults ~horizon (fun h ->
        let tracing = probe.Probe.tracing in
        let full = Params.full_set p in
        let state = State.of_counts config.initial in
        let lambda_total = Params.lambda_total p in
        (* Walker alias table: O(1) arrival-type draws instead of a linear
           CDF scan, and no per-arrival allocation. *)
        let arrival_alias = Dist.Alias.make (Array.map snd p.arrivals) in
        let counters = Engine.counters h in
        let frun = Engine.faults h in
        let abort_rate = config.faults.abort_rate in
        let visits_to_empty = ref 0 in
        (* sampled phase cost of contact resolution (policy sampling +
           piece bookkeeping) — the markov hot path's dominant term *)
        let contact_tm = Hist.timer (Hist.get probe.Probe.hists "sim_markov/contact") in
        Engine.observe h ~time:(Engine.start_time h) ~n:(State.n state);
        (* The seed count is maintained incrementally (arrival of a full
           set, completion into the dwell stage, seed departure) so the
           per-event rate recomputation is pure arithmetic — no hash
           lookup on the hot path. *)
        let seeds = ref (State.count state full) in
        let us = p.us and mu = p.mu and gamma = p.gamma in
        let immediate = Params.immediate_departure p in
        let draw = Rng.int_below rng in
        let pair = { State.uploader = full; downloader = full } in
        (* Only contacts between different types are raced (the seed is
           a full-type uploader): same-type contacts are self-loops of
           the chain, and every other ordered pair keeps its rate μ/n
           (U_s/n for the seed).  DESIGN §18. *)
        let b = { arrival = lambda_total; seed_contact = 0.0; peer_contact = 0.0; abort = 0.0 } in
        let total_rate () =
          let n = State.n state in
          let s = !seeds in
          let fn = float_of_int n in
          b.seed_contact <-
            (if n > s && Faults.seed_up frun then us *. float_of_int (n - s) /. fn else 0.0);
          b.peer_contact <-
            (if n > 0 then mu *. float_of_int ((n * n) - State.same_type_pairs state) /. fn
             else 0.0);
          b.abort <- abort_rate *. float_of_int (n - s);
          let rate_departure = if immediate then 0.0 else gamma *. float_of_int s in
          b.arrival +. b.seed_contact +. b.peer_contact +. b.abort +. rate_departure
        in
        let contact ~time ~uploader ~downloader =
          let c_t0 = Hist.tick contact_tm in
          let changed =
            resolve_contact ~rng ~frun ~p ~policy:config.policy ~state ~uploader ~downloader
              ~seeds ~counters ~probe ~time
          in
          Hist.tock contact_tm c_t0;
          changed
        in
        let apply ~time ~u =
          let changed =
            if u < b.arrival then begin
              let idx = Dist.Alias.sample rng arrival_alias in
              let pieces = fst p.arrivals.(idx) in
              State.add_peer state pieces;
              if Pieceset.equal pieces full then incr seeds;
              counters.arrivals <- counters.arrivals + 1;
              if tracing then Probe.arrival probe ~time ~pieces;
              true
            end
            else if u < b.arrival +. b.seed_contact then
              contact ~time ~uploader:Policy.Fixed_seed
                ~downloader:(State.sample_peer_not_of state ~draw full)
            else if u < b.arrival +. b.seed_contact +. b.peer_contact then begin
              State.sample_distinct_pair state ~draw pair;
              contact ~time ~uploader:(Policy.Peer pair.uploader) ~downloader:pair.downloader
            end
            else if u < b.arrival +. b.seed_contact +. b.peer_contact +. b.abort then begin
              (* Churn: a uniformly chosen in-progress peer abandons its
                 download.  A positive abort band guarantees a non-seed
                 peer exists. *)
              State.remove_peer state (State.sample_peer_not_of state ~draw full);
              counters.aborted <- counters.aborted + 1;
              counters.departures <- counters.departures + 1;
              if tracing then Probe.departure probe ~time Aborted;
              true
            end
            else begin
              State.remove_peer state full;
              decr seeds;
              counters.departures <- counters.departures + 1;
              if tracing then Probe.departure probe ~time Seed_departed;
              true
            end
          in
          if changed then begin
            let n' = State.n state in
            Engine.observe h ~time ~n:n';
            if n' = 0 then incr visits_to_empty;
            (match observer with Some f -> f ~time ~state | None -> ());
            match until with
            | Some pred when pred ~time ~n:n' -> Engine.request_stop h
            | _ -> ()
          end
        in
        let model =
          {
            Engine.total_rate;
            apply;
            next_scheduled = (fun () -> infinity);
            scheduled = (fun ~time:_ -> ());
            population = (fun () -> State.n state);
            extra_sample = (fun ~time:_ -> ());
            probe_sample =
              (fun ~time ->
                Probe.sample ~time ~k:p.k ~n:(State.n state) ~count_of:(State.count state)
                  ~piece_counts:(State.piece_count_vector state ~k:p.k));
            finish = (fun ~time:_ -> ());
          }
        in
        (model, (state, visits_to_empty)))
  in
  let stats =
    {
      final_time = common.Engine.final_time;
      events = common.Engine.events;
      arrivals = common.Engine.arrivals;
      transfers = common.Engine.transfers;
      completions = common.Engine.completions;
      departures = common.Engine.departures;
      time_avg_n = common.Engine.time_avg_n;
      max_n = common.Engine.max_n;
      final_n = common.Engine.final_n;
      visits_to_empty = !visits_to_empty;
      truncated = common.Engine.truncated;
      stopped = common.Engine.stopped;
      outage_time = common.Engine.outage_time;
      aborted_peers = common.Engine.aborted_peers;
      lost_transfers = common.Engine.lost_transfers;
      samples = common.Engine.samples;
    }
  in
  (stats, state)

let run_seeded ?probe ?observer ?sample_every ?max_events ?resume ?until ~seed config ~horizon =
  let rng = Rng.of_seed seed in
  run ?probe ?observer ?sample_every ?max_events ?resume ?until ~rng config ~horizon
