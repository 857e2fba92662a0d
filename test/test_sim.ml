(* The stochastic simulators: conservation laws, agreement with theory,
   agreement between the aggregate and agent-level implementations. *)

module PS = P2p_pieceset.Pieceset
open P2p_core

let close ?(tol = 0.1) name expected actual =
  let rel = Float.abs (actual -. expected) /. Float.max 1.0 (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.4g got %.4g" name expected actual)
    true (rel < tol)

let stable_params = Scenario.flash_crowd ~k:3 ~lambda:0.5 ~us:0.8 ~mu:1.0 ~gamma:2.0
let transient_params = Scenario.flash_crowd ~k:3 ~lambda:1.0 ~us:0.1 ~mu:1.0 ~gamma:infinity

(* ---- Sim_markov ---- *)

let test_markov_conservation () =
  let stats, final = Sim_markov.run_seeded ~seed:1 (Sim_markov.default_config stable_params)
      ~horizon:2000.0 in
  Alcotest.(check int) "arrivals - departures = final" (stats.arrivals - stats.departures)
    stats.final_n;
  Alcotest.(check int) "state agrees" (State.n final) stats.final_n

let test_markov_stable_returns_to_empty () =
  let stats, _ = Sim_markov.run_seeded ~seed:2 (Sim_markov.default_config stable_params)
      ~horizon:3000.0 in
  Alcotest.(check bool) "visits empty repeatedly" true (stats.visits_to_empty > 5)

let test_markov_transient_grows_at_delta () =
  (* One-club growth rate approx lambda_total - threshold. *)
  let piece = Stability.binding_piece transient_params in
  let delta = Params.lambda_total transient_params -. Stability.threshold transient_params ~piece in
  let club = PS.remove piece (PS.full ~k:3) in
  let config = { (Sim_markov.default_config transient_params) with initial = [ (club, 150) ] } in
  let stats, _ = Sim_markov.run_seeded ~seed:3 config ~horizon:500.0 in
  let fit = Classify.of_samples stats.samples in
  close ~tol:0.25 "growth rate = Delta" delta fit.growth_rate

let test_markov_deterministic_given_seed () =
  let run () = fst (Sim_markov.run_seeded ~seed:42 (Sim_markov.default_config stable_params) ~horizon:300.0) in
  let a = run () and b = run () in
  Alcotest.(check int) "same events" a.events b.events;
  Alcotest.(check int) "same final n" a.final_n b.final_n

let test_markov_no_seed_no_pieces () =
  (* U_s = 0 and empty arrivals only: nobody ever gets a piece. *)
  let p = Params.make ~k:2 ~us:0.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 1.0) ] in
  let stats, final = Sim_markov.run_seeded ~seed:4 (Sim_markov.default_config p) ~horizon:300.0 in
  Alcotest.(check int) "no transfers" 0 stats.transfers;
  Alcotest.(check int) "all still empty-handed" (State.n final) (State.count final PS.empty)

let test_markov_empirical_rates_match_generator () =
  (* Long-run fraction of transfer events by target piece must match the
     generator's Gamma ratios at a frozen state.  We test on a state held
     quasi-constant: large one-club + one gifted uploader, short horizon. *)
  let p = Params.make ~k:2 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.01) ] in
  let s = State.of_counts [ (PS.empty, 50); (PS.singleton 0, 50) ] in
  let r0 = Rate.gamma_c_i p s ~c:PS.empty ~piece:0 in
  let r1 = Rate.gamma_c_i p s ~c:PS.empty ~piece:1 in
  (* piece 1 flows from both seed and the 50 {1}-peers; piece 2 only from
     the seed: strong asymmetry the simulator must reproduce. *)
  Alcotest.(check bool) "generator asymmetry" true (r0 > (10.0 *. r1));
  let config =
    { (Sim_markov.default_config p) with initial = [ (PS.empty, 50); (PS.singleton 0, 50) ] }
  in
  let _, final = Sim_markov.run_seeded ~seed:5 config ~horizon:2.0 in
  (* after a short run, far more peers should have gained piece 1 than 2 *)
  let gained_piece0 = State.count final (PS.singleton 0) + State.count final (PS.full ~k:2) in
  let gained_piece1_only = State.count final (PS.singleton 1) in
  Alcotest.(check bool) "piece-1 flow dominates" true (gained_piece0 > 5 * Int.max 1 gained_piece1_only)

let test_markov_policy_changes_dynamics_not_stability () =
  (* Theorem 14: same verdict under every useful policy. *)
  List.iter
    (fun policy ->
      let config = { (Sim_markov.default_config stable_params) with policy } in
      let stats, _ = Sim_markov.run_seeded ~seed:6 config ~horizon:2000.0 in
      let r = Classify.of_samples stats.samples in
      Alcotest.(check string)
        (Printf.sprintf "stable under %s" policy.Policy.name)
        "appears-stable"
        (Classify.verdict_to_string r.verdict))
    [ Policy.random_useful; Policy.rarest_first; Policy.most_common_first; Policy.sequential ]

let test_markov_seed_arrivals () =
  (* lambda_F > 0 (peers arriving as seeds, gamma finite): they dwell
     Exp(gamma) and leave; stationary seed count = lambda_F/gamma by
     Little, and they help drain the swarm meanwhile. *)
  let p =
    Params.make ~k:2 ~us:0.2 ~mu:1.0 ~gamma:2.0
      ~arrivals:[ (PS.empty, 0.3); (PS.full ~k:2, 0.8) ]
  in
  let seed_avg = P2p_stats.Timeavg.create () in
  let observer ~time ~state =
    P2p_stats.Timeavg.observe seed_avg ~time
      ~value:(float_of_int (State.count state (PS.full ~k:2)))
  in
  let rng = P2p_prng.Rng.of_seed 21 in
  let stats, _ = Sim_markov.run ~observer ~rng (Sim_markov.default_config p) ~horizon:8000.0 in
  Alcotest.(check int) "conservation" (stats.arrivals - stats.departures) stats.final_n;
  (* every peer (arriving seed or completer) passes through the seed
     stage, so E[seeds] = lambda_total / gamma = 1.1 * 0.5 = 0.55 *)
  close ~tol:0.08 "Little's law for the seed stage" 0.55
    (P2p_stats.Timeavg.average seed_avg)

let test_markov_truncation_flag () =
  (* A tiny max_events budget must be reported, not silently absorbed:
     the run freezes at the cap but still claims final_time = horizon. *)
  let config = (Sim_markov.default_config stable_params) in
  let stats, _ = Sim_markov.run_seeded ~seed:9 ~max_events:25 config ~horizon:1000.0 in
  Alcotest.(check bool) "truncated flagged" true stats.truncated;
  Alcotest.(check int) "stopped exactly at the budget" 25 stats.events;
  Alcotest.(check (float 1e-9)) "final_time still reads horizon" 1000.0 stats.final_time;
  (* An untruncated run of the same scenario reports false. *)
  let stats, _ = Sim_markov.run_seeded ~seed:9 config ~horizon:50.0 in
  Alcotest.(check bool) "ample budget not flagged" false stats.truncated

let test_markov_samples_grid () =
  let stats, _ = Sim_markov.run_seeded ~seed:7 ~sample_every:10.0
      (Sim_markov.default_config stable_params) ~horizon:100.0 in
  Alcotest.(check int) "11 grid points" 11 (Array.length stats.samples);
  Array.iteri
    (fun i (t, _) -> Alcotest.(check (float 1e-9)) "grid time" (10.0 *. float_of_int i) t)
    stats.samples

(* ---- Sim_agent ---- *)

let test_agent_conservation () =
  let stats, final = Sim_agent.run_seeded ~seed:8 (Sim_agent.default_config stable_params)
      ~horizon:2000.0 in
  Alcotest.(check int) "arrivals - departures = final" (stats.arrivals - stats.departures)
    stats.final_n;
  Alcotest.(check int) "aggregate state agrees" (State.n final) stats.final_n

let test_agent_matches_markov_mean () =
  (* Same law: time-average populations agree across implementations. *)
  let avg run_fn =
    let w = P2p_stats.Welford.create () in
    for seed = 1 to 12 do
      P2p_stats.Welford.add w (run_fn seed)
    done;
    P2p_stats.Welford.mean w
  in
  let markov seed =
    (fst (Sim_markov.run_seeded ~seed (Sim_markov.default_config stable_params) ~horizon:1500.0))
      .time_avg_n
  in
  let agent seed =
    (fst (Sim_agent.run_seeded ~seed:(seed + 100) (Sim_agent.default_config stable_params)
            ~horizon:1500.0))
      .time_avg_n
  in
  close ~tol:0.12 "same mean population" (avg markov) (avg agent)

let test_agent_groups_partition () =
  let club = PS.of_list [ 1; 2 ] in
  let config = { (Sim_agent.default_config transient_params) with initial = [ (club, 100) ] } in
  let stats, _ = Sim_agent.run_seeded ~seed:9 config ~horizon:200.0 in
  Array.iter
    (fun ((_, g) : float * Sim_agent.groups) ->
      Alcotest.(check bool) "groups partition population" true (Sim_agent.groups_total g >= 0))
    stats.group_samples;
  (* group totals equal the population samples *)
  Array.iteri
    (fun i (t, g) ->
      let t', n = stats.samples.(i) in
      Alcotest.(check (float 1e-9)) "same grid" t t';
      Alcotest.(check int) "partition exact" n (Sim_agent.groups_total g))
    stats.group_samples

let test_agent_one_club_dominates_transient () =
  let club = PS.of_list [ 1; 2 ] in
  let config = { (Sim_agent.default_config transient_params) with initial = [ (club, 150) ] } in
  let stats, _ = Sim_agent.run_seeded ~seed:10 config ~horizon:300.0 in
  Alcotest.(check bool) "one-club fraction near 1" true (stats.one_club_time_fraction > 0.9);
  let _, last = stats.group_samples.(Array.length stats.group_samples - 1) in
  Alcotest.(check bool) "club grew" true (last.one_club > 150)

let test_agent_gifted_tracked () =
  let p =
    Params.make ~k:2 ~us:0.5 ~mu:1.0 ~gamma:2.0
      ~arrivals:[ (PS.empty, 0.5); (PS.singleton 0, 0.5) ]
  in
  let stats, _ = Sim_agent.run_seeded ~seed:11 (Sim_agent.default_config p) ~horizon:300.0 in
  let saw_gifted =
    Array.exists (fun ((_, g) : float * Sim_agent.groups) -> g.gifted > 0) stats.group_samples
  in
  Alcotest.(check bool) "gifted peers observed" true saw_gifted

let test_agent_sojourn_positive () =
  let stats, _ = Sim_agent.run_seeded ~seed:12 (Sim_agent.default_config stable_params)
      ~horizon:1000.0 in
  Alcotest.(check bool) "sojourns recorded" true (stats.sojourn_count > 50);
  Alcotest.(check bool) "mean sojourn sane" true
    (stats.mean_sojourn > 1.0 && stats.mean_sojourn < 100.0)

(* Mean sojourn of a stable swarm should be near K/mu-ish downloads plus
   dwell 1/gamma; sanity via Little's law: N = lambda * T. *)
let test_agent_littles_law () =
  let stats, _ = Sim_agent.run_seeded ~seed:13 (Sim_agent.default_config stable_params)
      ~horizon:4000.0 in
  let lambda = Params.lambda_total stable_params in
  close ~tol:0.15 "Little's law" (lambda *. stats.mean_sojourn) stats.time_avg_n

let test_agent_dwell_distributions_same_mean () =
  (* Deterministic and Erlang dwell with the same mean keep the stable
     system stable with similar populations (insensitivity conjecture). *)
  let base = Sim_agent.default_config stable_params in
  let avg dwell =
    (fst (Sim_agent.run_seeded ~seed:14 { base with dwell } ~horizon:2500.0)).time_avg_n
  in
  let exp_avg = avg Sim_agent.Exp_dwell in
  let det_avg = avg Sim_agent.Deterministic_dwell in
  let erl_avg = avg (Sim_agent.Erlang_dwell 3) in
  close ~tol:0.25 "deterministic dwell similar" exp_avg det_avg;
  close ~tol:0.25 "erlang dwell similar" exp_avg erl_avg

let test_agent_eta_speedup_runs () =
  (* eta > 1 (faster retry after useless contact) should not destabilise a
     clearly stable system. *)
  let config = { (Sim_agent.default_config stable_params) with eta = 10.0 } in
  let stats, _ = Sim_agent.run_seeded ~seed:15 config ~horizon:1500.0 in
  let r = Classify.of_samples stats.samples in
  Alcotest.(check string) "still stable" "appears-stable" (Classify.verdict_to_string r.verdict)

let rejects name config =
  Alcotest.(check bool) name true
    (try
       ignore (Sim_agent.run_seeded ~seed:16 config ~horizon:10.0);
       false
     with Invalid_argument _ -> true)

let test_agent_eta_invalid () =
  rejects "eta < 1 rejected" { (Sim_agent.default_config stable_params) with eta = 0.5 }

(* [nan] fails every comparison, so only [not (eta >= 1)] catches it. *)
let test_agent_eta_nan () =
  rejects "eta = nan rejected" { (Sim_agent.default_config stable_params) with eta = nan }

(* At gamma = inf no dwell is ever drawn, so only the preamble can see a
   stage-less Erlang law. *)
let test_agent_erlang_zero () =
  rejects "Erlang_dwell 0 rejected at gamma = inf"
    { (Sim_agent.default_config transient_params) with dwell = Sim_agent.Erlang_dwell 0 }

let test_agent_rare_piece_range () =
  List.iter
    (fun rare_piece ->
      rejects
        (Printf.sprintf "rare piece %d rejected" rare_piece)
        { (Sim_agent.default_config stable_params) with rare_piece })
    [ -1; 3 ]

let test_agent_local_census_needs_overlay () =
  rejects "neighbourhood census on the complete graph rejected"
    { (Sim_agent.default_config stable_params) with census = Sim_agent.Neighbourhood }

(* With gamma = inf a full-set initial peer never leaves: an extra seed
   for ever, on every overlay. *)
let test_agent_initial_seeds_need_finite_gamma () =
  List.iter
    (fun degree ->
      rejects "initial peer seeds at gamma = inf rejected"
        { (Sim_agent.default_config transient_params) with
          degree;
          initial = [ (PS.full ~k:3, 3) ] })
    [ None; Some 1; Some 4 ]

let test_agent_deterministic_given_seed () =
  let run () =
    fst (Sim_agent.run_seeded ~seed:77 (Sim_agent.default_config stable_params) ~horizon:300.0)
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same events" a.events b.events;
  Alcotest.(check int) "same transfers" a.transfers b.transfers

(* Per-event allocation of the aggregate backend in the stable flash
   crowd: the draws, the engine clock and the rate bands are unboxed, so
   what remains is the handful of floats the model closures pass and
   return.  Measured at 9.0 words per event in the default build, which
   inlines the draws across modules, and 16.5 under [--profile dev]
   ([-opaque]); the ceiling must hold in both.  The reference
   [Int64]-record generator allocated ~144 words per event here. *)
let test_markov_alloc_per_event () =
  let p = Scenario.flash_crowd ~k:8 ~lambda:20.0 ~us:2.0 ~mu:1.0 ~gamma:0.8 in
  let before = Gc.minor_words () in
  let stats, _ = Sim_markov.run_seeded ~seed:12345 (Sim_markov.default_config p) ~horizon:400.0 in
  let words = (Gc.minor_words () -. before) /. float_of_int stats.Sim_markov.events in
  Alcotest.(check bool) "enough events to amortise set-up" true (stats.Sim_markov.events > 50_000);
  Alcotest.(check bool)
    (Printf.sprintf "<= 40 minor words per event (%.1f over %d events)" words
       stats.Sim_markov.events)
    true (words <= 40.0)

(* ---- Sim_coded ---- *)

(* The coded contact path reuses caller-owned scratch rows for every
   upload, receive and containment proof; what is left per event is the
   engine's boxed floats and each arrival's row buffers.  Measured at
   13.9, 12.3 and 13.2 words per event in the cases below in the default
   build, and 24.0, 22.4 and 23.4 under [--profile dev] ([-opaque]),
   against 39 (GF(16)), 34 (GF(2)) and 61 (smart exchange) in the opaque
   build when a useless transfer allocated its containment scratch row.
   The ceiling must hold in both builds. *)
let test_coded_alloc_per_event () =
  List.iter
    (fun (q, smart_exchange) ->
      let config =
        { Sim_coded.q; k = 8; us = 1.0; mu = 1.0; gamma = infinity;
          arrivals = [ (0, 1.0) ]; smart_exchange; faults = Faults.none }
      in
      let before = Gc.minor_words () in
      let stats = Sim_coded.run_seeded ~seed:11 config ~horizon:2000.0 in
      let events = stats.Sim_coded.events in
      let words = (Gc.minor_words () -. before) /. float_of_int events in
      Alcotest.(check bool) "enough events to amortise set-up" true (events > 20_000);
      Alcotest.(check bool)
        (Printf.sprintf "q=%d smart=%b: <= 30 minor words per event (%.1f over %d events)" q
           smart_exchange words events)
        true (words <= 30.0))
    [ (16, false); (2, false); (16, true) ]

let () =
  Alcotest.run "sim"
    [
      ( "markov",
        [
          Alcotest.test_case "conservation" `Quick test_markov_conservation;
          Alcotest.test_case "returns to empty" `Quick test_markov_stable_returns_to_empty;
          Alcotest.test_case "growth = Delta" `Quick test_markov_transient_grows_at_delta;
          Alcotest.test_case "deterministic" `Quick test_markov_deterministic_given_seed;
          Alcotest.test_case "no pieces no transfers" `Quick test_markov_no_seed_no_pieces;
          Alcotest.test_case "rates match generator" `Quick test_markov_empirical_rates_match_generator;
          Alcotest.test_case "policy invariance" `Slow test_markov_policy_changes_dynamics_not_stability;
          Alcotest.test_case "seed arrivals (lambda_F)" `Quick test_markov_seed_arrivals;
          Alcotest.test_case "truncation flag" `Quick test_markov_truncation_flag;
          Alcotest.test_case "allocation per event" `Quick test_markov_alloc_per_event;
          Alcotest.test_case "sample grid" `Quick test_markov_samples_grid;
        ] );
      ( "coded",
        [ Alcotest.test_case "allocation per event" `Quick test_coded_alloc_per_event ] );
      ( "agent",
        [
          Alcotest.test_case "conservation" `Quick test_agent_conservation;
          Alcotest.test_case "matches markov" `Slow test_agent_matches_markov_mean;
          Alcotest.test_case "groups partition" `Quick test_agent_groups_partition;
          Alcotest.test_case "one-club dominates" `Quick test_agent_one_club_dominates_transient;
          Alcotest.test_case "gifted tracked" `Quick test_agent_gifted_tracked;
          Alcotest.test_case "sojourn" `Quick test_agent_sojourn_positive;
          Alcotest.test_case "little's law" `Slow test_agent_littles_law;
          Alcotest.test_case "dwell distributions" `Slow test_agent_dwell_distributions_same_mean;
          Alcotest.test_case "eta speedup" `Quick test_agent_eta_speedup_runs;
          Alcotest.test_case "eta invalid" `Quick test_agent_eta_invalid;
          Alcotest.test_case "eta nan" `Quick test_agent_eta_nan;
          Alcotest.test_case "Erlang 0 stages" `Quick test_agent_erlang_zero;
          Alcotest.test_case "rare piece range" `Quick test_agent_rare_piece_range;
          Alcotest.test_case "local census needs overlay" `Quick
            test_agent_local_census_needs_overlay;
          Alcotest.test_case "initial seeds need finite gamma" `Quick
            test_agent_initial_seeds_need_finite_gamma;
          Alcotest.test_case "deterministic" `Quick test_agent_deterministic_given_seed;
        ] );
    ]
