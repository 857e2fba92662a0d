(* Exact stationary analysis on truncated state spaces. *)

module PS = P2p_pieceset.Pieceset
open P2p_core

let closef ?(tol = 1e-6) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.8g got %.8g" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let test_mm1_closed_form () =
  (* K=1 with gamma=inf degenerates to M/M/1(lambda, U_s). *)
  let lambda = 0.4 and us = 1.0 in
  let p = Params.make ~k:1 ~us ~mu:1.0 ~gamma:infinity ~arrivals:[ (PS.empty, lambda) ] in
  let chain = Truncated.build p ~n_max:100 in
  let pi = Truncated.stationary chain in
  let rho = lambda /. us in
  closef "E[N]" (rho /. (1.0 -. rho)) (Truncated.mean_population chain pi);
  closef "P(0)" (1.0 -. rho) (Truncated.probability_empty chain pi);
  (* geometric tail: P(N >= m) = rho^m *)
  closef "P(N>=3)" (rho ** 3.0) (Truncated.population_tail chain pi ~at_least:3)

let test_distribution_properties () =
  let p = Params.make ~k:2 ~us:0.6 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.3) ] in
  let chain = Truncated.build p ~n_max:15 in
  let pi = Truncated.stationary chain in
  let total = Array.fold_left ( +. ) 0.0 pi in
  closef ~tol:1e-9 "sums to 1" 1.0 total;
  Array.iter (fun x -> Alcotest.(check bool) "nonnegative" true (x >= 0.0)) pi;
  Alcotest.(check bool) "cap mass tiny" true (Truncated.truncation_mass_at_cap chain pi < 1e-4)

let test_seed_littles_law () =
  (* Stationary mean number of peer seeds = lambda_total / gamma exactly
     (every peer passes through the seed stage once, dwelling 1/gamma). *)
  let lambda = 0.5 and gamma = 2.0 in
  let p = Params.make ~k:2 ~us:0.8 ~mu:1.0 ~gamma ~arrivals:[ (PS.empty, lambda) ] in
  let chain = Truncated.build p ~n_max:24 in
  let pi = Truncated.stationary chain in
  closef ~tol:1e-4 "Little's law for seeds" (lambda /. gamma)
    (Truncated.mean_type_count chain pi (PS.full ~k:2))

let test_exact_matches_simulation () =
  let p = Params.make ~k:2 ~us:1.0 ~mu:1.0 ~gamma:infinity ~arrivals:[ (PS.empty, 0.4) ] in
  let chain = Truncated.build p ~n_max:25 in
  let pi = Truncated.stationary chain in
  let exact = Truncated.mean_population chain pi in
  let stats, _ = Sim_markov.run_seeded ~seed:3 (Sim_markov.default_config p) ~horizon:40000.0 in
  closef ~tol:0.05 "exact vs simulated E[N]" exact stats.time_avg_n

let test_finite_gamma_vs_simulation () =
  (* Same agreement check in the gamma < infinity regime. *)
  let p = Params.make ~k:1 ~us:0.7 ~mu:1.0 ~gamma:3.0 ~arrivals:[ (PS.empty, 0.4) ] in
  let chain = Truncated.build p ~n_max:60 in
  let pi = Truncated.stationary chain in
  let stats, _ = Sim_markov.run_seeded ~seed:9 (Sim_markov.default_config p) ~horizon:40000.0 in
  closef ~tol:0.05 "E[N] vs simulation" (Truncated.mean_population chain pi) stats.time_avg_n

let test_monotone_in_lambda () =
  let en lambda =
    let p = Scenario.example1 ~lambda0:lambda ~us:0.5 ~mu:1.0 ~gamma:2.0 in
    let chain = Truncated.build p ~n_max:80 in
    Truncated.mean_population chain (Truncated.stationary chain)
  in
  let a = en 0.3 and b = en 0.5 and c = en 0.7 in
  Alcotest.(check bool) "E[N] increasing in load" true (a < b && b < c)

let test_mean_seeds_zero_when_immediate () =
  let p = Params.make ~k:2 ~us:1.0 ~mu:1.0 ~gamma:infinity ~arrivals:[ (PS.empty, 0.4) ] in
  let chain = Truncated.build p ~n_max:15 in
  let pi = Truncated.stationary chain in
  closef "no peer seeds at gamma=inf" 0.0 (Truncated.mean_type_count chain pi (PS.full ~k:2))

let test_build_guards () =
  let p = Params.make ~k:2 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.4) ] in
  Alcotest.(check bool) "n_max 0 rejected" true
    (try
       ignore (Truncated.build p ~n_max:0);
       false
     with Invalid_argument _ -> true);
  let p5 = Params.make ~k:5 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.4) ] in
  Alcotest.(check bool) "oversized space rejected" true
    (try
       ignore (Truncated.build p5 ~n_max:50);
       false
     with Invalid_argument _ -> true)

let test_hitting_time_mm1 () =
  (* M/M/1: expected time to drain n customers = n/(mu - lambda). *)
  let lambda = 0.4 and us = 1.0 in
  let p = Params.make ~k:1 ~us ~mu:1.0 ~gamma:infinity ~arrivals:[ (PS.empty, lambda) ] in
  let t = Truncated.build p ~n_max:150 in
  List.iter
    (fun n ->
      closef ~tol:1e-4
        (Printf.sprintf "drain from %d" n)
        (float_of_int n /. (us -. lambda))
        (Truncated.mean_hitting_time_to_empty t ~from_:[ (PS.empty, n) ]))
    [ 1; 5; 20 ]

let test_hitting_time_monotone () =
  let p = Params.make ~k:2 ~us:0.8 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.4) ] in
  let t = Truncated.build p ~n_max:20 in
  let h n = Truncated.mean_hitting_time_to_empty t ~from_:[ (PS.empty, n) ] in
  Alcotest.(check bool) "monotone in start size" true (h 1 < h 4 && h 4 < h 10);
  Alcotest.(check bool) "empty start is zero" true (Truncated.mean_hitting_time_to_empty t ~from_:[] = 0.0)

let test_hitting_time_rejects_uncarried_start () =
  (* At gamma = inf the chain carries neither the full type (a completed
     peer leaves) nor any type beyond K. *)
  let p = Params.make ~k:2 ~us:0.8 ~mu:1.0 ~gamma:infinity ~arrivals:[ (PS.empty, 0.4) ] in
  let t = Truncated.build p ~n_max:10 in
  List.iter
    (fun (name, from_) ->
      Alcotest.(check bool) name true
        (try
           ignore (Truncated.mean_hitting_time_to_empty t ~from_);
           false
         with Invalid_argument _ -> true))
    [
      ("full type at gamma=inf", [ (PS.full ~k:2, 3) ]);
      ("type beyond K", [ (PS.singleton 2, 3) ]);
      ("negative count", [ (PS.empty, -1) ]);
      ("over the cap", [ (PS.empty, 11) ]);
    ]

let test_return_time_kac () =
  (* Kac: mean time between entries to empty = 1 / (pi_empty * lambda). *)
  let lambda = 0.4 in
  let p = Params.make ~k:1 ~us:1.0 ~mu:1.0 ~gamma:infinity ~arrivals:[ (PS.empty, lambda) ] in
  let t = Truncated.build p ~n_max:150 in
  let pi = Truncated.stationary t in
  closef ~tol:1e-5 "Kac formula" (1.0 /. ((1.0 -. lambda) *. lambda))
    (Truncated.return_time_to_empty t pi)

let test_return_decomposes_into_sojourn_plus_hit () =
  (* cycle = Exp(lambda) sojourn in empty + mean hit time from the
     post-arrival state. *)
  let lambda = 0.5 in
  let p = Params.make ~k:2 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, lambda) ] in
  let t = Truncated.build p ~n_max:24 in
  let pi = Truncated.stationary t in
  let cycle = Truncated.return_time_to_empty t pi in
  let hit = Truncated.mean_hitting_time_to_empty t ~from_:[ (PS.empty, 1) ] in
  closef ~tol:1e-3 "cycle = 1/lambda + hit" ((1.0 /. lambda) +. hit) cycle

let test_state_count_formula () =
  let p = Params.make ~k:1 ~us:1.0 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.4) ] in
  let chain = Truncated.build p ~n_max:10 in
  (* 2 types, n <= 10: C(12,2) = 66 states *)
  Alcotest.(check int) "state count" 66 (Truncated.state_count chain)

let () =
  Alcotest.run "truncated"
    [
      ( "truncated",
        [
          Alcotest.test_case "M/M/1 closed form" `Quick test_mm1_closed_form;
          Alcotest.test_case "distribution properties" `Quick test_distribution_properties;
          Alcotest.test_case "seeds Little's law" `Quick test_seed_littles_law;
          Alcotest.test_case "matches simulation" `Slow test_exact_matches_simulation;
          Alcotest.test_case "finite gamma vs simulation" `Slow test_finite_gamma_vs_simulation;
          Alcotest.test_case "monotone in load" `Quick test_monotone_in_lambda;
          Alcotest.test_case "no seeds at gamma=inf" `Quick test_mean_seeds_zero_when_immediate;
          Alcotest.test_case "build guards" `Quick test_build_guards;
          Alcotest.test_case "hitting time M/M/1" `Quick test_hitting_time_mm1;
          Alcotest.test_case "hitting time monotone" `Quick test_hitting_time_monotone;
          Alcotest.test_case "hitting time rejects an uncarried start" `Quick
            test_hitting_time_rejects_uncarried_start;
          Alcotest.test_case "return time (Kac)" `Quick test_return_time_kac;
          Alcotest.test_case "cycle decomposition" `Quick test_return_decomposes_into_sojourn_plus_hit;
          Alcotest.test_case "state count" `Quick test_state_count_formula;
        ] );
    ]
