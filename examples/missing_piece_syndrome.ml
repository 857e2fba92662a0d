(* The missing piece syndrome up close (Section V / VI, Fig. 2).

   Start a transient swarm from a large one-club — every peer holds all
   pieces except piece 1 — and watch the group decomposition the
   transience proof uses: normal young peers, infected peers (got piece 1
   while young), gifted peers (arrived with piece 1), one-club peers and
   former one-club peers.  The one-club grows linearly at rate ≈ Δ while
   all other groups stay O(1); the branching-process constants of the
   proof quantify exactly how many departures each injection of piece 1
   can cause. *)

open P2p_core
module Abs = P2p_branching.Abs
module Pieceset = P2p_pieceset.Pieceset
module Runner = P2p_runner.Runner
module Welford = P2p_stats.Welford
module Probe = P2p_obs.Probe
module Series = P2p_obs.Series

let () =
  Report.banner "Missing piece syndrome (Fig. 2 group decomposition)";
  let k = 4 in
  let us = 0.2 in
  let lambda = 1.0 in
  let gamma = 2.0 in
  let mu = 1.0 in
  let params = Scenario.flash_crowd ~k ~lambda ~us ~mu ~gamma in
  let verdict, piece, _ = Stability.classify_detail params in
  let thr = Stability.threshold params ~piece in
  Printf.printf "K=%d U_s=%g lambda=%g mu=%g gamma=%g\n" k us lambda mu gamma;
  Printf.printf "Theorem 1: %s (threshold %.3f vs arrival rate %.3f)\n"
    (Stability.verdict_to_string verdict) thr lambda;
  Printf.printf "Expected one-club growth rate Delta = %.3f per unit time\n"
    (lambda -. thr);

  (* Branching constants of the transience proof (xi -> 0 limits). *)
  Report.subsection "autonomous branching system constants (Section VI)";
  let abs = { Abs.k; mu; gamma; xi = 0.0 } in
  Report.kv
    [
      ("m_b (descendants+1 of an infected peer)", Report.fmt_float (Abs.m_b_limit abs));
      ("m_f (descendants+1 of a former one-club peer)", Report.fmt_float (Abs.m_f_limit abs));
      ( "m_g({1}) (descendants of a 1-piece gifted peer)",
        Report.fmt_float (Abs.m_g_limit abs ~c_size:1) );
      ( "download-rate bound (RHS of Eq. 2)",
        Report.fmt_float
          (Abs.dhat_rate_limit ~us ~k ~mu_over_gamma:(mu /. gamma) ~gifted:[]) );
    ];

  (* Simulate from a 300-peer one-club and print the group trajectory. *)
  let one_club = Pieceset.remove 0 (Pieceset.full ~k) in
  let config = { (Sim_agent.default_config params) with initial = [ (one_club, 300) ] } in
  let stats, _ = Sim_agent.run_seeded ~seed:404 ~sample_every:40.0 config ~horizon:400.0 in
  Report.subsection "group populations over time (start: 300 one-club peers)";
  Report.table
    ~header:[ "time"; "young"; "infected"; "gifted"; "one-club"; "former"; "total" ]
    (Array.to_list
       (Array.map
          (fun (t, (g : Sim_agent.groups)) ->
            [
              Report.fmt_float t;
              string_of_int g.young;
              string_of_int g.infected;
              string_of_int g.gifted;
              string_of_int g.one_club;
              string_of_int g.former_one_club;
              string_of_int (Sim_agent.groups_total g);
            ])
          stats.group_samples));
  Printf.printf "\nOne-club time-average fraction of the population: %.3f\n"
    stats.one_club_time_fraction;

  (* One trajectory is suggestive; the quantitative claim "the club grows
     at rate Delta" needs replications.  16 independent runs through the
     multicore runner: the measured growth rate should bracket Delta. *)
  Report.subsection "replicated growth-rate estimate (16 runner replications)";
  let summary =
    Runner.run_summary
      ~metrics:[ "growth dN/dt"; "one-club time fraction" ]
      ~master_seed:404 ~replications:16
      (fun ~rng ~index:_ ->
        let stats, _ = Sim_agent.run ~rng ~sample_every:10.0 config ~horizon:400.0 in
        let fit = Classify.of_samples stats.samples in
        Runner.rep [| fit.growth_rate; stats.one_club_time_fraction |])
  in
  List.iter
    (fun (name, w) ->
      let lo, hi = Welford.confidence_interval w ~z:1.96 in
      Printf.printf "  %-24s %8.3f   95%% CI [%.3f, %.3f]\n" name (Welford.mean w) lo hi)
    summary.stats;
  Printf.printf "  paper-predicted Delta    %8.3f\n" (lambda -. thr);
  Format.printf "  (%a)@." Runner.pp_timing summary.timing;

  (* The same syndrome read straight off the telemetry layer: attach a
     swarm probe (sim-time sampling grid, pure observation) and fit the
     one-club series it collects.  The transient swarm's club crosses
     into significant linear growth; the cured one (gamma = mu, below)
     never does.  This is what `p2psim simulate --probe-interval` +
     `p2psim report` automate from the command line. *)
  Report.subsection "telemetry: one-club growth from the probe series";
  let probe_one_club config =
    let series = Series.create ~k ~interval:20.0 in
    let probe = Probe.make ~interval:20.0 ~on_sample:(Series.record series) () in
    ignore (Sim_agent.run_seeded ~probe ~seed:404 config ~horizon:400.0);
    Series.close series ~time:400.0;
    series
  in
  let series = probe_one_club config in
  Report.table
    ~header:[ "time"; "one-club"; "population"; "rarest copies" ]
    (Array.to_list
       (Array.map
          (fun (s : Probe.sample) ->
            [
              Report.fmt_float s.Probe.time;
              string_of_int s.Probe.one_club;
              string_of_int s.Probe.n;
              string_of_int s.Probe.rarest_count;
            ])
          (Series.samples series)));
  let fit = Classify.of_samples (Series.one_club_series series) in
  let cured_params = Params.with_gamma params ~gamma:mu in
  let cured_config =
    { (Sim_agent.default_config cured_params) with initial = [ (one_club, 300) ] }
  in
  let cured_fit = Classify.of_samples (Series.one_club_series (probe_one_club cured_config)) in
  Printf.printf "  transient: club grows %.3f/t (t-stat %.1f, predicted Delta %.3f)\n"
    fit.growth_rate fit.growth_t_stat (lambda -. thr);
  Printf.printf "  cured:     club grows %.3f/t (t-stat %.1f) -- drains instead\n"
    cured_fit.growth_rate cured_fit.growth_t_stat;

  (* The antidote: let peers dwell just long enough (gamma <= mu). *)
  Report.subsection "the corollary: dwell to upload one extra piece";
  let cured = Params.with_gamma params ~gamma:mu in
  let r = Classify.run ~horizon:1500.0 ~seed:405 ~initial:[ (one_club, 300) ] cured in
  Report.kv
    [
      ("gamma set to mu, theory", Stability.verdict_to_string (Stability.classify cured));
      ("simulated from the same 300-peer one-club", Classify.verdict_to_string r.verdict);
      ("final population", string_of_int r.final_n);
    ];
  exit 0
