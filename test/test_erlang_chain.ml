(* Erlang-dwell exact chains (method of stages): Truncated.build ~stages. *)

open P2p_core
module PS = P2p_pieceset.Pieceset

let closef ?(tol = 1e-6) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.8g got %.8g" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let base = Params.make ~k:2 ~us:0.8 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.5) ]

(* The stationary aggregates of the Erlang-[m] chain. *)
let solve ?tol p ~stages ~n_max =
  let chain = Truncated.build ~stages p ~n_max in
  let pi = Truncated.stationary ?tol chain in
  (Truncated.mean_population chain pi, Truncated.mean_type_count chain pi (PS.full ~k:p.Params.k))

let test_seed_littles_law_invariant () =
  (* E[seeds] = lambda/gamma regardless of the dwell shape. *)
  List.iter
    (fun m ->
      let _, seeds = solve base ~stages:m ~n_max:15 in
      closef ~tol:1e-4 (Printf.sprintf "m=%d" m) 0.25 seeds)
    [ 1; 2; 3 ]

let test_population_nearly_insensitive () =
  let en m = fst (solve base ~stages:m ~n_max:15) in
  let e1 = en 1 and e3 = en 3 in
  Alcotest.(check bool)
    (Printf.sprintf "E[N] within 2%%: %.4f vs %.4f" e1 e3)
    true
    (Float.abs (e1 -. e3) /. e1 < 0.02)

let test_agent_simulation_agrees () =
  (* Cross-check against the agent simulator's Erlang dwell support. *)
  let exact, _ = solve base ~stages:3 ~n_max:15 in
  let config = { (Sim_agent.default_config base) with dwell = Sim_agent.Erlang_dwell 3 } in
  let stats, _ = Sim_agent.run_seeded ~seed:1 config ~horizon:20_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "exact %.3f vs simulated %.3f" exact stats.time_avg_n)
    true
    (Float.abs (exact -. stats.time_avg_n) /. exact < 0.08)

let test_boundary_location_insensitive () =
  (* Near the Theorem 1 boundary, E[N] blows up at the same load for every
     dwell shape: compare the growth factor of E[N] between two loads. *)
  let en ~stages lambda =
    let p = Scenario.example1 ~lambda0:lambda ~us:0.5 ~mu:1.0 ~gamma:2.0 in
    fst (solve ~tol:1e-9 p ~stages ~n_max:55)
  in
  List.iter
    (fun m ->
      let low = en ~stages:m 0.4 and high = en ~stages:m 0.75 in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d blow-up toward the same boundary (%.2f -> %.2f)" m low high)
        true
        (high > 4.0 *. low))
    [ 1; 2 ]

let test_validation () =
  Alcotest.(check bool) "stages 0" true
    (try
       ignore (Truncated.build ~stages:0 base ~n_max:5);
       false
     with Invalid_argument _ -> true);
  let inf = Params.make ~k:2 ~us:0.8 ~mu:1.0 ~gamma:infinity ~arrivals:[ (PS.empty, 0.5) ] in
  Alcotest.(check bool) "gamma inf" true
    (try
       ignore (Truncated.build ~stages:2 inf ~n_max:5);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "erlang_chain"
    [
      ( "erlang_chain",
        [
          Alcotest.test_case "seed Little invariant" `Quick test_seed_littles_law_invariant;
          Alcotest.test_case "E[N] nearly insensitive" `Quick test_population_nearly_insensitive;
          Alcotest.test_case "agent simulation agrees" `Slow test_agent_simulation_agrees;
          Alcotest.test_case "boundary insensitive" `Slow test_boundary_location_insensitive;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
