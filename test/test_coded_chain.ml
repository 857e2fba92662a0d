(* The type-level coded Markov chain: generator, exact stationary
   analysis and the Eq. (56) Lyapunov function, with the chain's
   simulations run on Sim_coded. *)

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

(* The same chain, simulated peer by peer. *)
let simulate ?sample_every ?max_events ~seed (c : Coded_chain.config) ~horizon =
  Sim_coded.run_seeded ?sample_every ?max_events ~seed
    { Sim_coded.q = c.q; k = c.k; us = c.us; mu = c.mu; gamma = c.gamma; arrivals = c.arrivals;
      smart_exchange = false; faults = Faults.none }
    ~horizon

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
      (fun acc (from_, _, r) -> if from_ >= 0 && from_ <> L.full lat then acc +. r else acc)
      0.0
      (Coded_chain.transitions t state)
  in
  Alcotest.(check bool) "bounded by capacity" true
    (transfer_total <= stable_cfg.us +. (stable_cfg.mu *. 5.0) +. 1e-9)

(* Each downloader's total transfer outflow against its closed form
   (x_v/n)(U_s (1 − |V|/q^K) + μ Σ_u x_u (1 − |V∩U|/|U|)): a useful
   contact lifts a type-V peer with probability one minus the chance
   that a uniform member of the uploader's subspace already lies in V. *)
let test_transfer_outflow_closed_form () =
  let check name (c : Coded_chain.config) ~n_max =
    let t = Coded_chain.create c in
    let lat = Coded_chain.lattice t in
    let full = L.full lat in
    let size v = float_of_int (L.size lat v) in
    let dims = if Float.is_finite c.gamma then L.count lat else L.count lat - 1 in
    let sp = Balance.space ~who:name ~dims ~n_max in
    Balance.iter sp (fun i x n ->
        let state = Coded_chain.state_of t (List.init dims (fun v -> (v, x.(v)))) in
        let out = Array.make (L.count lat) 0.0 in
        List.iter
          (fun (from_, _, rate) -> if from_ >= 0 && from_ <> full then out.(from_) <- out.(from_) +. rate)
          (Coded_chain.transitions t state);
        Array.iteri
          (fun v x_v ->
            if v <> full && x_v > 0 then begin
              let peers = ref 0.0 in
              Array.iteri
                (fun u x_u ->
                  peers :=
                    !peers +. (float_of_int x_u *. (1.0 -. (size (L.inter lat v u) /. size u))))
                x;
              let expected =
                float_of_int x_v /. float_of_int n
                *. ((c.us *. (1.0 -. (size v /. size full))) +. (c.mu *. !peers))
              in
              if Float.abs (out.(v) -. expected) > 1e-12 *. Float.max 1.0 expected then
                Alcotest.failf "%s, state %d, type %d: generator %.17g, closed form %.17g" name
                  i v out.(v) expected
            end)
          x)
  in
  check "q=2 K=2 gamma=2" { stable_cfg with gamma = 2.0 } ~n_max:4;
  check "q=2 K=2 gamma=inf" stable_cfg ~n_max:4;
  check "q=3 K=2 gamma=2"
    { Coded_chain.q = 3; k = 2; us = 0.7; mu = 1.3; gamma = 2.0; arrivals = [ (0, 0.5); (1, 0.4) ] }
    ~n_max:3

(* The moves of each kind: an arrival enters, a transfer keeps n, and a
   decoding transfer at gamma = inf leaves; applied to the count vector,
   the drift of n is the arrival rate less the departure rate. *)
let test_apply_conservation () =
  let t = Coded_chain.create stable_cfg in
  let lat = Coded_chain.lattice t in
  let line = (L.covers lat (L.zero lat)).(0) in
  let x = Coded_chain.state_of t [ (L.zero lat, 3); (line, 1) ] in
  let moves = Coded_chain.transitions t x in
  let has from_ to_ = List.exists (fun (f, t, _) -> f = from_ && t = to_) moves in
  Alcotest.(check bool) "arrival enters" true (has (-1) (L.zero lat));
  Alcotest.(check bool) "transfer moves" true (has (L.zero lat) line);
  Alcotest.(check bool) "decode departs" true (has line (-1));
  Alcotest.(check bool) "no decoded peer stays" false (has line (L.full lat));
  let sum_rates keep = List.fold_left (fun acc (f, t, r) -> if keep f t then acc +. r else acc) 0.0 moves in
  close ~tol:1e-12 "Q(n)"
    (sum_rates (fun f _ -> f < 0) -. sum_rates (fun _ t -> t < 0))
    (Lyapunov.drift_counts ~f:(fun x -> float_of_int (Array.fold_left ( + ) 0 x)) moves x)

let test_stable_simulation_small () =
  let s = simulate ~seed:3 stable_cfg ~horizon:3000.0 in
  Alcotest.(check bool) "small population" true (s.time_avg_n < 20.0);
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "stable" "appears-stable" (Classify.verdict_to_string r.verdict)

let test_exact_stationary_matches_simulation () =
  let t = Coded_chain.create stable_cfg in
  let solved = Coded_chain.stationary t ~n_max:25 in
  Alcotest.(check bool) "cap mass small" true (solved.mass_at_cap < 1e-4);
  let s = simulate ~seed:4 stable_cfg ~horizon:30000.0 in
  close ~tol:0.06 "exact vs simulated E[N]" solved.mean_n s.time_avg_n;
  let md = Coded_chain.mean_dim t solved in
  Alcotest.(check bool) "mean dim within [0,K)" true (md >= 0.0 && md < 2.0)

let test_theory_verdicts () =
  Alcotest.(check string) "stable cfg" "positive-recurrent"
    (Stability.verdict_to_string (Stability.Coded.classify_profile (profile_of stable_cfg)));
  Alcotest.(check string) "transient cfg" "transient"
    (Stability.verdict_to_string (Stability.Coded.classify_profile (profile_of transient_cfg)))

let test_transient_grows () =
  let s = simulate ~seed:5 transient_cfg ~horizon:1500.0 in
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "unstable" "appears-unstable" (Classify.verdict_to_string r.verdict)

let test_lyapunov_negative_drift_stable () =
  let t = Coded_chain.create stable_cfg in
  let coeffs = Coded_chain.default_coeffs t in
  List.iter
    (fun (pt : Lyapunov.scan_point) ->
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
      (fun acc (pt : Lyapunov.scan_point) -> Float.max acc pt.drift_value)
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
       ignore (Coded_chain.w t coeffs (Coded_chain.state_of t []));
       false
     with Invalid_argument _ -> true)

let test_finite_gamma_seed_dwell () =
  (* gamma finite: completed peers dwell, so seed departures
     appear and conservation holds. *)
  let s = simulate ~seed:6 { stable_cfg with gamma = 2.0 } ~horizon:2000.0 in
  Alcotest.(check int) "conservation" (s.arrivals - s.departures) s.final_n;
  Alcotest.(check bool) "departures happen" true (s.departures > 100)

(* Pins the simulation of this chain at finite gamma, the one coded
   configuration that both dwelling seeds and the exact solver cover. *)
let test_engine_golden () =
  let s = simulate ~sample_every:50.0 ~seed:6 { stable_cfg with gamma = 2.0 } ~horizon:400.0 in
  Alcotest.(check int) "events" 3281 s.events;
  Alcotest.(check int) "arrivals" 405 s.arrivals;
  Alcotest.(check int) "departures" 405 s.departures;
  Alcotest.(check int) "final n" 0 s.final_n;
  Alcotest.(check int) "max n" 12 s.max_n;
  Alcotest.(check (array (pair (float 0.0) int))) "samples"
    [| (0., 0); (50., 9); (100., 2); (150., 2); (200., 6); (250., 3); (300., 3); (350., 1);
       (400., 0) |]
    s.samples;
  Alcotest.(check int64) "time-avg N bits" 4616490352912465812L
    (Int64.bits_of_float s.time_avg_n);
  Alcotest.(check bool) "not truncated" false s.truncated

let test_truncated_flag () =
  let s = simulate ~max_events:50 ~seed:6 stable_cfg ~horizon:400.0 in
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
          Alcotest.test_case "transfer outflow closed form" `Quick test_transfer_outflow_closed_form;
          Alcotest.test_case "apply conservation" `Quick test_apply_conservation;
          Alcotest.test_case "theory verdicts" `Quick test_theory_verdicts;
        ] );
      ( "dynamics",
        [
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
