(* Queueing substrate: M/GI/∞ against closed forms, plus the appendix
   bounds (Kingman / Lemma 21) verified empirically. *)

module Rng = P2p_prng.Rng
module Mg_inf = P2p_queueing.Mg_inf
module Cp = P2p_queueing.Compound_poisson
module Bounds = P2p_queueing.Bounds

let close ?(tol = 0.08) name expected actual =
  let rel = Float.abs (actual -. expected) /. Float.max 0.05 (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.4g got %.4g" name expected actual)
    true (rel < tol)

let test_service_means () =
  close ~tol:1e-9 "exp" 0.5 (Mg_inf.mean_service (Mg_inf.Exponential 2.0));
  close ~tol:1e-9 "erlang" 1.5 (Mg_inf.mean_service (Mg_inf.Erlang (3, 2.0)));
  close ~tol:1e-9 "hypoexp" 1.75 (Mg_inf.mean_service (Mg_inf.Hypoexponential [ 1.0; 2.0; 4.0 ]));
  close ~tol:1e-9 "det" 3.0 (Mg_inf.mean_service (Mg_inf.Deterministic 3.0))

let test_service_sampling () =
  let rng = Rng.of_seed 3 in
  List.iter
    (fun service ->
      let w = P2p_stats.Welford.create () in
      for _ = 1 to 50_000 do
        P2p_stats.Welford.add w (Mg_inf.sample_service rng service)
      done;
      close
        (Printf.sprintf "sampled mean (%g)" (Mg_inf.mean_service service))
        (Mg_inf.mean_service service) (P2p_stats.Welford.mean w))
    [
      Mg_inf.Exponential 2.0;
      Mg_inf.Erlang (4, 1.0);
      Mg_inf.Hypoexponential [ 0.5; 1.0 ];
      Mg_inf.Deterministic 1.2;
    ]

let test_mg_inf_stationary_mean () =
  let rng = Rng.of_seed 4 in
  List.iter
    (fun service ->
      let r = Mg_inf.simulate ~rng ~arrival_rate:2.0 ~service ~horizon:30_000.0 in
      close
        (Printf.sprintf "M/GI/inf mean (%g)" (Mg_inf.mean_service service))
        (Mg_inf.stationary_mean ~arrival_rate:2.0 ~service)
        r.time_avg_customers)
    [ Mg_inf.Exponential 1.0; Mg_inf.Erlang (3, 3.0); Mg_inf.Deterministic 0.7 ]

(* The exact service law of Lemma 5: K exponential download stages plus one
   exponential dwell stage. *)
let test_mg_inf_paper_service () =
  let rng = Rng.of_seed 5 in
  let k = 4 and mu = 1.0 and gamma = 2.0 in
  let service = Mg_inf.Hypoexponential (List.init k (fun _ -> mu) @ [ gamma ]) in
  close ~tol:1e-9 "mean K/mu + 1/gamma" 4.5 (Mg_inf.mean_service service);
  let r = Mg_inf.simulate ~rng ~arrival_rate:1.0 ~service ~horizon:20_000.0 in
  close "population Poisson mean" 4.5 r.time_avg_customers

let test_mg_inf_conservation () =
  let rng = Rng.of_seed 6 in
  let r = Mg_inf.simulate ~rng ~arrival_rate:3.0 ~service:(Mg_inf.Exponential 1.0) ~horizon:1000.0 in
  Alcotest.(check int) "arrivals = departures + in system" r.arrivals
    (r.departures + r.final_customers)

let test_mg_inf_stationary_is_poisson () =
  (* Stationary population is Poisson(lambda * E[S]): variance should also
     match the mean (a distribution-level check beyond the first moment). *)
  let rng = Rng.of_seed 7 in
  let lambda = 1.5 and service = Mg_inf.Erlang (2, 2.0) in
  let mean = Mg_inf.stationary_mean ~arrival_rate:lambda ~service in
  (* Sample the population at widely separated epochs via independent
     warm runs. *)
  let w = P2p_stats.Welford.create () in
  for _ = 1 to 400 do
    let r = Mg_inf.simulate ~rng ~arrival_rate:lambda ~service ~horizon:30.0 in
    P2p_stats.Welford.add w (float_of_int r.final_customers)
  done;
  close ~tol:0.12 "Poisson mean" mean (P2p_stats.Welford.mean w);
  close ~tol:0.2 "Poisson variance = mean" mean (P2p_stats.Welford.variance w);
  Alcotest.(check bool) "tail prob sane" true
    (Bounds.poisson_tail ~mean ~at_least:(int_of_float mean + 2) < 0.5)

let test_kingman_bound_holds () =
  (* Empirical crossing frequency must not exceed the Kingman bound. *)
  let rng = Rng.of_seed 8 in
  let batch = Cp.constant_batch 1.0 in
  let arrival_rate = 1.0 and b = 30.0 and slope = 1.5 in
  let bound = Cp.kingman_bound ~arrival_rate ~batch ~b ~slope in
  let crossings = ref 0 in
  let reps = 400 in
  for _ = 1 to reps do
    let r = Cp.simulate_crossing ~rng ~arrival_rate ~batch ~horizon:2000.0 ~b ~slope in
    if r.crossed then incr crossings
  done;
  let freq = float_of_int !crossings /. float_of_int reps in
  Alcotest.(check bool)
    (Printf.sprintf "crossing freq %.4f <= bound %.4f" freq bound)
    true
    (freq <= bound +. 0.02)

let test_kingman_vacuous_when_subcritical () =
  let batch = Cp.constant_batch 1.0 in
  Alcotest.(check (float 0.0)) "slope below drift: bound 1" 1.0
    (Cp.kingman_bound ~arrival_rate:2.0 ~batch ~b:10.0 ~slope:1.0)

let test_kingman_decreases_in_b () =
  let batch = Cp.geometric_total_progeny ~mean_offspring:0.5 in
  let f b = Cp.kingman_bound ~arrival_rate:1.0 ~batch ~b ~slope:3.0 in
  Alcotest.(check bool) "monotone in B" true (f 10.0 > f 20.0 && f 20.0 > f 40.0)

let test_progeny_batch_moments () =
  let rng = Rng.of_seed 9 in
  let m = 0.4 in
  let batch = Cp.geometric_total_progeny ~mean_offspring:m in
  close ~tol:1e-9 "mean 1/(1-m)" (1.0 /. (1.0 -. m)) batch.mean;
  let w = P2p_stats.Welford.create () in
  for _ = 1 to 100_000 do
    P2p_stats.Welford.add w (batch.sample rng)
  done;
  close "sampled progeny mean" batch.mean (P2p_stats.Welford.mean w);
  let second = P2p_stats.Welford.variance w +. (P2p_stats.Welford.mean w ** 2.0) in
  close ~tol:0.1 "sampled second moment" batch.mean_square second

let test_lemma21_bound_holds () =
  (* P{M_t >= B + eps t for some t} <= e^{lambda(m+1)} 2^-B / (1 - 2^-eps). *)
  let lambda = 1.0 and service = Mg_inf.Exponential 1.0 in
  let m = Mg_inf.mean_service service in
  let b = 15.0 and eps = 1.0 in
  let bound = Bounds.mg_inf_maximal_bound ~arrival_rate:lambda ~mean_service:m ~b ~eps in
  let rng = Rng.of_seed 10 in
  let crossings = ref 0 in
  let reps = 300 in
  for _ = 1 to reps do
    if
      Mg_inf.exceedance_ever ~rng ~arrival_rate:lambda ~service ~horizon:500.0
        ~boundary:(fun t -> b +. (eps *. t))
    then incr crossings
  done;
  let freq = float_of_int !crossings /. float_of_int reps in
  Alcotest.(check bool)
    (Printf.sprintf "freq %.4f <= bound %.4f" freq bound)
    true (freq <= bound +. 0.02)

let test_poisson_tail_values () =
  close ~tol:1e-6 "P(X>=0)=1" 1.0 (Bounds.poisson_tail ~mean:3.0 ~at_least:0);
  close ~tol:1e-6 "P(X>=1)=1-e^-3" (1.0 -. exp (-3.0)) (Bounds.poisson_tail ~mean:3.0 ~at_least:1);
  close ~tol:1e-6 "P(X>=2)" (1.0 -. (exp (-3.0) *. 4.0)) (Bounds.poisson_tail ~mean:3.0 ~at_least:2)

let () =
  Alcotest.run "queueing"
    [
      ( "mg_inf",
        [
          Alcotest.test_case "service means" `Quick test_service_means;
          Alcotest.test_case "service sampling" `Quick test_service_sampling;
          Alcotest.test_case "stationary mean" `Quick test_mg_inf_stationary_mean;
          Alcotest.test_case "paper service law" `Quick test_mg_inf_paper_service;
          Alcotest.test_case "conservation" `Quick test_mg_inf_conservation;
          Alcotest.test_case "stationary Poisson" `Quick test_mg_inf_stationary_is_poisson;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "kingman holds" `Quick test_kingman_bound_holds;
          Alcotest.test_case "kingman vacuous" `Quick test_kingman_vacuous_when_subcritical;
          Alcotest.test_case "kingman monotone" `Quick test_kingman_decreases_in_b;
          Alcotest.test_case "progeny batch moments" `Quick test_progeny_batch_moments;
          Alcotest.test_case "lemma 21 holds" `Quick test_lemma21_bound_holds;
          Alcotest.test_case "poisson tail" `Quick test_poisson_tail_values;
        ] );
    ]
