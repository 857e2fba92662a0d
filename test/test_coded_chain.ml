(* The type-level coded Markov chain: generator, simulation, exact
   stationary analysis, and the Eq. (56) Lyapunov function. *)

open P2p_core
module L = P2p_coding.Lattice

let close ?(tol = 0.08) name expected actual =
  let rel = Float.abs (actual -. expected) /. Float.max 0.5 (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.4g got %.4g" name expected actual)
    true (rel < tol)

let stable_cfg =
  (* q=2, K=2 with a strong fixed seed: theory positive recurrent. *)
  { Coded_chain.q = 2; k = 2; us = 2.0; mu = 1.0; gamma = infinity;
    arrivals = [ (0, 0.5); (1, 0.5) ] }

let transient_cfg =
  { Coded_chain.q = 2; k = 2; us = 0.0; mu = 1.0; gamma = infinity;
    arrivals = [ (0, 0.4); (1, 0.6) ] }

let profile_of (c : Coded_chain.config) =
  { Stability.Coded.pq = c.q; pk = c.k; pus = c.us; pmu = c.mu; pgamma = c.gamma;
    parrivals = c.arrivals }

let test_create_guards () =
  Alcotest.(check bool) "no arrivals" true
    (try
       ignore (Coded_chain.create { stable_cfg with arrivals = [] });
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad mu" true
    (try
       ignore (Coded_chain.create { stable_cfg with mu = 0.0 });
       false
     with Invalid_argument _ -> true)

let test_arrival_rates_decompose () =
  let t = Coded_chain.create stable_cfg in
  let lat = Coded_chain.lattice t in
  let total = ref 0.0 in
  for v = 0 to L.count lat - 1 do
    total := !total +. Coded_chain.arrival_rate_to t v
  done;
  (* gamma = inf: the (tiny) mass of 1-vector gifts that decode instantly
     never enters; for K=2 a single vector cannot decode, so everything
     arrives. *)
  close ~tol:1e-9 "arrival mass" 1.0 !total;
  (* empty-handed arrivals all land on the zero subspace *)
  Alcotest.(check bool) "zero gets at least the empty stream" true
    (Coded_chain.arrival_rate_to t (L.zero lat) >= 0.5)

let test_transition_rates_conserve_contacts () =
  (* Total transfer rate <= U_s + mu * n (contacts that help). *)
  let t = Coded_chain.create stable_cfg in
  let lat = Coded_chain.lattice t in
  let state = Coded_chain.state_of t [ (L.zero lat, 5); (L.full lat, 0) ] in
  let transfer_total =
    List.fold_left
      (fun acc (tr, r) ->
        match tr with Coded_chain.Transfer _ -> acc +. r | _ -> acc)
      0.0
      (Coded_chain.transitions t state)
  in
  Alcotest.(check bool) "bounded by capacity" true
    (transfer_total <= stable_cfg.us +. (stable_cfg.mu *. 5.0) +. 1e-9)

let test_apply_conservation () =
  let t = Coded_chain.create stable_cfg in
  let lat = Coded_chain.lattice t in
  let state = Coded_chain.state_of t [ (L.zero lat, 3) ] in
  Coded_chain.apply t state (Coded_chain.Arrival (L.zero lat));
  Alcotest.(check int) "arrival adds" 4 state.n;
  let line = (L.covers lat (L.zero lat)).(0) in
  Coded_chain.apply t state (Coded_chain.Transfer { downloader = L.zero lat; target = line });
  Alcotest.(check int) "transfer keeps n" 4 state.n;
  Alcotest.(check int) "moved" 1 state.counts.(line);
  (* completing at gamma = inf departs *)
  Coded_chain.apply t state (Coded_chain.Transfer { downloader = line; target = L.full lat });
  Alcotest.(check int) "decode departs" 3 state.n

let test_type_level_matches_agent_level () =
  (* Same law as Sim_coded: compare time-average N on the transient
     config where the signal is strong. *)
  let t = Coded_chain.create transient_cfg in
  let rng = P2p_prng.Rng.of_seed 1 in
  let s = Coded_chain.simulate ~rng t ~init:(Coded_chain.empty_state t) ~horizon:2000.0 in
  let g = { Stability.Coded.q = 2; k = 2; us = 0.0; mu = 1.0; gamma = infinity;
            lambda0 = 0.4; lambda1 = 0.6 } in
  let sa = Sim_coded.run_seeded ~seed:2 (Sim_coded.of_gift g) ~horizon:2000.0 in
  close ~tol:0.15 "agent vs type-level mean N" sa.time_avg_n s.time_avg_n

let test_stable_simulation_small () =
  let t = Coded_chain.create stable_cfg in
  let rng = P2p_prng.Rng.of_seed 3 in
  let s = Coded_chain.simulate ~rng t ~init:(Coded_chain.empty_state t) ~horizon:3000.0 in
  Alcotest.(check bool) "small population" true (s.time_avg_n < 20.0);
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "stable" "appears-stable" (Classify.verdict_to_string r.verdict)

let test_exact_stationary_matches_simulation () =
  let t = Coded_chain.create stable_cfg in
  let solved = Coded_chain.stationary t ~n_max:25 in
  Alcotest.(check bool) "cap mass small" true (solved.mass_at_cap < 1e-4);
  let rng = P2p_prng.Rng.of_seed 4 in
  let s = Coded_chain.simulate ~rng t ~init:(Coded_chain.empty_state t) ~horizon:30000.0 in
  close ~tol:0.06 "exact vs simulated E[N]" solved.mean_n s.time_avg_n;
  let md = Coded_chain.mean_dim t solved in
  Alcotest.(check bool) "mean dim within [0,K)" true (md >= 0.0 && md < 2.0)

let test_theory_verdicts () =
  Alcotest.(check string) "stable cfg" "positive-recurrent"
    (Stability.verdict_to_string (Stability.Coded.classify_profile (profile_of stable_cfg)));
  Alcotest.(check string) "transient cfg" "transient"
    (Stability.verdict_to_string (Stability.Coded.classify_profile (profile_of transient_cfg)))

let test_transient_grows () =
  let t = Coded_chain.create transient_cfg in
  let rng = P2p_prng.Rng.of_seed 5 in
  let s = Coded_chain.simulate ~rng t ~init:(Coded_chain.empty_state t) ~horizon:1500.0 in
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "unstable" "appears-unstable" (Classify.verdict_to_string r.verdict)

let test_lyapunov_negative_drift_stable () =
  let t = Coded_chain.create stable_cfg in
  let coeffs = Coded_chain.default_coeffs t in
  List.iter
    (fun (pt : Coded_chain.scan_point) ->
      if pt.n >= 3000 then
        Alcotest.(check bool)
          (Printf.sprintf "QW < 0 at %s" pt.state_desc)
          true (pt.drift_value < 0.0))
    (Coded_chain.scan_hyperplane_states t coeffs ~sizes:[ 3000 ])

let test_lyapunov_positive_drift_transient () =
  let t = Coded_chain.create transient_cfg in
  let coeffs = Coded_chain.default_coeffs t in
  let worst =
    List.fold_left
      (fun acc (pt : Coded_chain.scan_point) -> Float.max acc pt.drift_value)
      neg_infinity
      (Coded_chain.scan_hyperplane_states t coeffs ~sizes:[ 3000 ])
  in
  Alcotest.(check bool) "some hyperplane has positive drift" true (worst > 0.0)

let test_w_regime_guard () =
  let t = Coded_chain.create { stable_cfg with gamma = 0.3 } in
  (* gamma = 0.3 <= mu_tilde = 0.5: Eq. 56 does not apply *)
  let coeffs = Coded_chain.default_coeffs t in
  Alcotest.(check bool) "regime guard" true
    (try
       ignore (Coded_chain.w t coeffs (Coded_chain.empty_state t));
       false
     with Invalid_argument _ -> true)

let test_finite_gamma_seed_dwell () =
  (* gamma finite: completed peers dwell, so Seed_departure transitions
     appear and conservation holds. *)
  let cfg = { stable_cfg with gamma = 2.0 } in
  let t = Coded_chain.create cfg in
  let rng = P2p_prng.Rng.of_seed 6 in
  let s = Coded_chain.simulate ~rng t ~init:(Coded_chain.empty_state t) ~horizon:2000.0 in
  Alcotest.(check int) "conservation" (s.arrivals - s.departures) s.final_n;
  Alcotest.(check bool) "departures happen" true (s.departures > 100)

(* Pinned from the private race loop this simulator ran before it moved
   onto Engine.drive: the move is bit-identical. *)
let test_engine_golden () =
  let t = Coded_chain.create { stable_cfg with gamma = 2.0 } in
  let s =
    Coded_chain.simulate ~sample_every:50.0 ~rng:(P2p_prng.Rng.of_seed 6) t
      ~init:(Coded_chain.empty_state t) ~horizon:400.0
  in
  Alcotest.(check int) "events" 1486 s.events;
  Alcotest.(check int) "arrivals" 415 s.arrivals;
  Alcotest.(check int) "departures" 409 s.departures;
  Alcotest.(check int) "final n" 6 s.final_n;
  Alcotest.(check int) "max n" 12 s.max_n;
  Alcotest.(check (array (pair (float 0.0) int))) "samples"
    [| (0., 0); (50., 5); (100., 4); (150., 0); (200., 8); (250., 8); (300., 1); (350., 7);
       (400., 6) |]
    s.samples;
  Alcotest.(check int64) "time-avg N bits" 4616270305733297701L
    (Int64.bits_of_float s.time_avg_n);
  Alcotest.(check bool) "not truncated" false s.truncated

let test_truncated_flag () =
  let t = Coded_chain.create stable_cfg in
  let s =
    Coded_chain.simulate ~max_events:50 ~rng:(P2p_prng.Rng.of_seed 6) t
      ~init:(Coded_chain.empty_state t) ~horizon:400.0
  in
  Alcotest.(check bool) "budget exhaustion flagged" true s.truncated;
  Alcotest.(check int) "stopped at the budget" 50 s.events;
  Alcotest.(check bool) "stats closed at the horizon" true (Float.equal s.final_time 400.0)

let () =
  Alcotest.run "coded_chain"
    [
      ( "generator",
        [
          Alcotest.test_case "create guards" `Quick test_create_guards;
          Alcotest.test_case "arrival decomposition" `Quick test_arrival_rates_decompose;
          Alcotest.test_case "capacity bound" `Quick test_transition_rates_conserve_contacts;
          Alcotest.test_case "apply conservation" `Quick test_apply_conservation;
          Alcotest.test_case "theory verdicts" `Quick test_theory_verdicts;
        ] );
      ( "dynamics",
        [
          Alcotest.test_case "matches agent level" `Slow test_type_level_matches_agent_level;
          Alcotest.test_case "stable small" `Quick test_stable_simulation_small;
          Alcotest.test_case "transient grows" `Quick test_transient_grows;
          Alcotest.test_case "exact vs simulated" `Slow test_exact_stationary_matches_simulation;
          Alcotest.test_case "finite gamma dwell" `Quick test_finite_gamma_seed_dwell;
          Alcotest.test_case "engine golden" `Quick test_engine_golden;
          Alcotest.test_case "truncated flag" `Quick test_truncated_flag;
        ] );
      ( "lyapunov-56",
        [
          Alcotest.test_case "negative drift stable" `Quick test_lyapunov_negative_drift_stable;
          Alcotest.test_case "positive drift transient" `Quick test_lyapunov_positive_drift_transient;
          Alcotest.test_case "regime guard" `Quick test_w_regime_guard;
        ] );
    ]
