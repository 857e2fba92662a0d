(* Sim_agent on a sparse contact overlay: each arrival attaches to
   [degree] uniform peers and uploads only to its neighbours. *)

open P2p_core

let stable = Scenario.flash_crowd ~k:3 ~lambda:0.9 ~us:0.8 ~mu:1.0 ~gamma:2.0
let transient = Scenario.flash_crowd ~k:3 ~lambda:1.3 ~us:0.3 ~mu:1.0 ~gamma:infinity

(* The CLI's `--policy rarest` and `--policy rarest-local` piece choices. *)
let rarest_global = (Policy.rarest_first, Sim_agent.Swarm)
let rarest_local = (Policy.random_useful, Sim_agent.Neighbourhood)

let test_conservation () =
  List.iter
    (fun degree ->
      let cfg = { (Sim_agent.default_config stable) with degree } in
      let s, final = Sim_agent.run_seeded ~seed:1 cfg ~horizon:1000.0 in
      Alcotest.(check int) "arrivals - departures = final" (s.arrivals - s.departures) s.final_n;
      Alcotest.(check int) "state agrees" (State.n final) s.final_n)
    [ None; Some 4; Some 1 ]

let test_stable_on_sparse_topology () =
  let cfg = { (Sim_agent.default_config stable) with degree = Some 4 } in
  let s, _ = Sim_agent.run_seeded ~seed:2 cfg ~horizon:2000.0 in
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "still stable at degree 4" "appears-stable"
    (Classify.verdict_to_string r.verdict)

let test_transient_on_sparse_topology () =
  let cfg = { (Sim_agent.default_config transient) with degree = Some 4 } in
  let s, _ = Sim_agent.run_seeded ~seed:3 cfg ~horizon:1200.0 in
  let r = Classify.of_samples s.samples in
  Alcotest.(check string) "still transient at degree 4" "appears-unstable"
    (Classify.verdict_to_string r.verdict);
  (* one-club witness rises *)
  let _, last_club = s.club_samples.(Array.length s.club_samples - 1) in
  Alcotest.(check bool) "club forms" true (last_club > 0.5)

let test_mean_degree_tracked () =
  let cfg = { (Sim_agent.default_config stable) with degree = Some 3 } in
  let s, _ = Sim_agent.run_seeded ~seed:4 cfg ~horizon:800.0 in
  Alcotest.(check bool) "mean degree positive and bounded" true
    (s.mean_degree_time_avg > 0.5 && s.mean_degree_time_avg < 20.0);
  Alcotest.(check bool) "components reported" true (s.final_component_sizes <> [])

let test_degree_validation () =
  let cfg = { (Sim_agent.default_config stable) with degree = Some 0 } in
  Alcotest.(check bool) "degree 0 rejected" true
    (try
       ignore (Sim_agent.run_seeded ~seed:5 cfg ~horizon:10.0);
       false
     with Invalid_argument _ -> true)

let test_rarest_choices_run () =
  List.iter
    (fun (policy, census) ->
      let cfg =
        { (Sim_agent.default_config stable) with degree = Some 5; policy; census }
      in
      let s, _ = Sim_agent.run_seeded ~seed:6 cfg ~horizon:800.0 in
      let r = Classify.of_samples s.samples in
      Alcotest.(check string) "stable under rarity policies" "appears-stable"
        (Classify.verdict_to_string r.verdict))
    [ rarest_global; rarest_local ]

let test_local_rarest_beats_random_on_club_pressure () =
  (* In the transient regime the one-club witness should rise at least as
     fast under random-useful as under local rarest-first (which fights
     rarity). Compare the time the club fraction stays above 1/2. *)
  let run (policy, census) =
    let cfg = { (Sim_agent.default_config transient) with degree = Some 6; policy; census } in
    let s, _ = Sim_agent.run_seeded ~seed:7 cfg ~horizon:900.0 in
    let above =
      Array.fold_left (fun acc (_, c) -> if c > 0.5 then acc + 1 else acc) 0 s.club_samples
    in
    float_of_int above /. float_of_int (Array.length s.club_samples)
  in
  let random = run (Policy.random_useful, Sim_agent.Swarm) in
  let rarest = run rarest_local in
  Alcotest.(check bool)
    (Printf.sprintf "rarest (%.2f) <= random (%.2f) + slack" rarest random)
    true
    (rarest <= random +. 0.15)

let test_deterministic () =
  let cfg = { (Sim_agent.default_config stable) with degree = Some 4 } in
  let a, _ = Sim_agent.run_seeded ~seed:8 cfg ~horizon:300.0 in
  let b, _ = Sim_agent.run_seeded ~seed:8 cfg ~horizon:300.0 in
  Alcotest.(check int) "same events" a.events b.events;
  Alcotest.(check int) "same transfers" a.transfers b.transfers

let test_degree_one_line_graph_survives () =
  (* Degree 1 gives a forest; the global seed still reaches everyone, so a
     comfortably stable system should survive, if with higher population
     (mean N ~ 70 against ~ 8 at degree 4).  Mixing is so slow that one
     run's verdict is a coin flip: over 40 seeds at horizon 6000, 3 read
     appears-unstable and 17 inconclusive.  So pool 8 seeds at horizon
     4000 and bound what a stable swarm keeps finite.  Observed: mean N
     71.3, mean late-half growth -0.009/t (per-seed spread ~0.02/t); a
     transient swarm at degree 1 grows at ~1/t, N ~ 1500. *)
  let cfg = { (Sim_agent.default_config stable) with degree = Some 1 } in
  let runs =
    List.init 8 (fun i ->
        let s, _ = Sim_agent.run_seeded ~seed:(i + 1) cfg ~horizon:4000.0 in
        (s.time_avg_n, (Classify.of_samples s.samples).growth_rate))
  in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs /. 8.0 in
  let mean_n = mean fst and mean_growth = mean snd in
  Alcotest.(check bool)
    (Printf.sprintf "pooled time-avg N %.1f < 100" mean_n)
    true (mean_n < 100.0);
  Alcotest.(check bool)
    (Printf.sprintf "pooled late-half growth %.4f/t < 0.02/t" mean_growth)
    true (mean_growth < 0.02)

let () =
  Alcotest.run "sim_network"
    [
      ( "sim_network",
        [
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "stable sparse" `Quick test_stable_on_sparse_topology;
          Alcotest.test_case "transient sparse" `Quick test_transient_on_sparse_topology;
          Alcotest.test_case "mean degree" `Quick test_mean_degree_tracked;
          Alcotest.test_case "degree validation" `Quick test_degree_validation;
          Alcotest.test_case "rarity policies" `Quick test_rarest_choices_run;
          Alcotest.test_case "rarest fights the club" `Quick test_local_rarest_beats_random_on_club_pressure;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "degree one" `Quick test_degree_one_line_graph_survives;
        ] );
    ]
