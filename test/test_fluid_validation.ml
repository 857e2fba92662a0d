(* Cross-validation of the fluid backend against the exact CTMC
   simulator, plus the hybrid backend's determinism contract.

   The fluid limit is the law-of-large-numbers approximation of the
   swarm CTMC, so its equilibria and growth rates must match replicated
   Sim_markov statistics — but only up to a finite-size bias of order
   1/N.  Every pinned point below therefore runs in a scaled regime
   (populations from ~75 to ~750) and accepts the fluid value inside
   [mean ± max(6·stderr, 6% relative)]: wide enough for the O(1/N)
   correction at the smallest scale, tight enough that a broken RHS or
   stepper (which shows up as tens of percent) cannot pass.

   The six points span both sides of the Theorem 1 boundary and both
   departure regimes (gamma = inf instant departure, finite gamma seed
   dwell).  On the transient side the fluid from a symmetric start
   converges to a fixed point — the missing-piece instability is a
   symmetry-breaking phenomenon — so the transient points seed a
   one-club and compare asymptotic growth slopes instead. *)

module PS = P2p_pieceset.Pieceset
module Runner = P2p_runner.Runner
open P2p_core

let second_half_mean (samples : (float * int) array) =
  let n = Array.length samples in
  let acc = ref 0.0 and cnt = ref 0 in
  for i = n / 2 to n - 1 do
    acc := !acc +. float_of_int (snd samples.(i));
    incr cnt
  done;
  !acc /. float_of_int !cnt

let second_half_slope (samples : (float * int) array) =
  let n = Array.length samples in
  let pts =
    Array.init
      (n - (n / 2))
      (fun i ->
        let t, v = samples.(i + (n / 2)) in
        (t, float_of_int v))
  in
  (P2p_stats.Regression.fit pts).P2p_stats.Regression.slope

(* Replicated CTMC estimate of [stat] with deterministic seeds. *)
let replicated ?(initial = []) ~reps ~horizon ~stat params =
  let w = P2p_stats.Welford.create () in
  for seed = 1 to reps do
    let stats, _ =
      Sim_markov.run_seeded ~sample_every:(horizon /. 200.0) ~seed
        { (Sim_markov.default_config params) with initial }
        ~horizon
    in
    P2p_stats.Welford.add w (stat stats.Sim_markov.samples)
  done;
  let mean = P2p_stats.Welford.mean w in
  let se = sqrt (P2p_stats.Welford.variance w /. float_of_int reps) in
  (mean, se)

let check_within name ~fluid ~mean ~se =
  let tol = Float.max (6.0 *. se) (0.06 *. Float.abs mean) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: fluid %.4f vs CTMC %.4f ± %.4f (tol %.4f)" name fluid mean se tol)
    true
    (Float.abs (fluid -. mean) <= tol)

(* Stable side: fluid equilibrium total vs the CTMC's steady-state mean
   population (second-half average over replications). *)
let stable_point name ~expect_verdict params =
  Alcotest.(check string) (name ^ " verdict") expect_verdict
    (Stability.verdict_to_string (Stability.classify params));
  let init = Fluid.of_state ~k:params.Params.k (State.create ()) in
  let fluid =
    match Fluid.equilibrium params ~init with
    | Some eq -> Fluid.total eq
    | None -> Alcotest.failf "%s: no fluid equilibrium on the stable side" name
  in
  let mean, se = replicated ~reps:16 ~horizon:300.0 ~stat:second_half_mean params in
  check_within name ~fluid ~mean ~se

(* Transient side: asymptotic growth slope from a one-club-heavy start,
   fluid trajectory vs replicated CTMC paths. *)
let transient_point name ~club ~count params =
  Alcotest.(check string) (name ^ " verdict") "transient"
    (Stability.verdict_to_string (Stability.classify params));
  let initial = [ (club, count) ] in
  let horizon = 200.0 in
  let init = Fluid.of_state ~k:params.Params.k (State.of_counts initial) in
  let traj = Fluid.integrate params ~init ~dt:0.05 ~horizon ~record_every:40 in
  let n = Array.length traj.Fluid.times in
  let pts =
    Array.init
      (n - (n / 2))
      (fun i -> (traj.Fluid.times.(i + (n / 2)), traj.Fluid.totals.(i + (n / 2))))
  in
  let fluid = (P2p_stats.Regression.fit pts).P2p_stats.Regression.slope in
  let mean, se = replicated ~initial ~reps:16 ~horizon ~stat:second_half_slope params in
  check_within name ~fluid ~mean ~se

let test_stable_k2_gamma_inf () =
  stable_point "k=2 λ=40 us=50 γ=∞" ~expect_verdict:"positive-recurrent"
    (Scenario.flash_crowd ~k:2 ~lambda:40.0 ~us:50.0 ~mu:1.0 ~gamma:infinity)

let test_stable_k2_gamma_inf_scaled () =
  stable_point "k=2 λ=400 us=500 γ=∞" ~expect_verdict:"positive-recurrent"
    (Scenario.flash_crowd ~k:2 ~lambda:400.0 ~us:500.0 ~mu:1.0 ~gamma:infinity)

let test_stable_k3_finite_gamma () =
  stable_point "k=3 λ=40 us=60 γ=2" ~expect_verdict:"positive-recurrent"
    (Scenario.flash_crowd ~k:3 ~lambda:40.0 ~us:60.0 ~mu:1.0 ~gamma:2.0)

let test_stable_k3_finite_gamma_scaled () =
  stable_point "k=3 λ=100 us=150 γ=2" ~expect_verdict:"positive-recurrent"
    (Scenario.flash_crowd ~k:3 ~lambda:100.0 ~us:150.0 ~mu:1.0 ~gamma:2.0)

let test_transient_k2_gamma_inf () =
  transient_point "k=2 λ=60 us=50 γ=∞" ~club:(PS.singleton 0) ~count:200
    (Scenario.flash_crowd ~k:2 ~lambda:60.0 ~us:50.0 ~mu:1.0 ~gamma:infinity)

let test_transient_k3_finite_gamma () =
  transient_point "k=3 λ=120 us=50 γ=2" ~club:(PS.of_list [ 0; 1 ]) ~count:500
    (Scenario.flash_crowd ~k:3 ~lambda:120.0 ~us:50.0 ~mu:1.0 ~gamma:2.0)

(* The two-chunk closed form (Norros–Reittu–Eirola): for K = 2 with
   empty arrivals and gamma = inf, the symmetric equilibrium y = x_{1} =
   x_{2} solves  2μ²y² + 3μ(us−λ)y + us² − 2λus = 0  and the empty
   density is  x_0 = y(us + μy)/(us/2 + μy).  Checked off the boundary
   at λ = 0.8, us = 1.2 — an algebraic prediction the integrator has to
   reproduce, not a pinned number from a previous implementation. *)
let test_two_chunk_closed_form () =
  let lambda = 0.8 and us = 1.2 and mu = 1.0 in
  let p = Scenario.flash_crowd ~k:2 ~lambda ~us ~mu ~gamma:infinity in
  let a = 2.0 *. mu *. mu in
  let b = 3.0 *. mu *. (us -. lambda) in
  let c = (us *. us) -. (2.0 *. lambda *. us) in
  let y = ((-.b) +. sqrt ((b *. b) -. (4.0 *. a *. c))) /. (2.0 *. a) in
  let x0 = y *. (us +. (mu *. y)) /. ((us /. 2.0) +. (mu *. y)) in
  let init = Fluid.of_state ~k:2 (State.create ()) in
  match Fluid.equilibrium p ~init with
  | None -> Alcotest.fail "expected equilibrium"
  | Some eq ->
      Alcotest.(check (float 1e-4)) "x_empty closed form" x0 eq.(0);
      Alcotest.(check (float 1e-4)) "x_{1} closed form" y eq.(1);
      Alcotest.(check (float 1e-4)) "x_{2} closed form" y eq.(2);
      Alcotest.(check (float 1e-4)) "total closed form" (x0 +. (2.0 *. y)) (Fluid.total eq)

(* ---- hybrid determinism ---- *)

let hybrid_config () =
  let params = Scenario.flash_crowd ~k:2 ~lambda:40.0 ~us:50.0 ~mu:1.0 ~gamma:infinity in
  Sim_hybrid.default_config ~up:95 ~down:80 (Sim_markov.default_config params)

let test_hybrid_deterministic_rerun () =
  let config = hybrid_config () in
  let run () = Sim_hybrid.run_seeded ~seed:7 config ~horizon:60.0 in
  let s1, x1 = run () in
  let s2, x2 = run () in
  Alcotest.(check bool) "switch count > 0" true (List.length s1.Sim_hybrid.switches > 0);
  List.iter2
    (fun (a : Sim_hybrid.switch) (b : Sim_hybrid.switch) ->
      Alcotest.(check (float 0.0)) "switch time bit-identical" a.at b.at;
      Alcotest.(check bool) "switch direction" a.to_fluid b.to_fluid;
      Alcotest.(check (float 0.0)) "switch population bit-identical" a.n b.n)
    s1.switches s2.switches;
  Alcotest.(check (float 0.0)) "final time" s1.final_time s2.final_time;
  Alcotest.(check (float 0.0)) "time-avg N" s1.time_avg_n s2.time_avg_n;
  Alcotest.(check (float 0.0)) "final N" s1.final_n s2.final_n;
  Alcotest.(check int) "events" s1.events s2.events;
  Alcotest.(check bool) "samples bit-identical" true (s1.samples = s2.samples);
  Alcotest.(check bool) "final state bit-identical" true (x1 = x2)

let test_hybrid_deterministic_across_jobs () =
  (* The replication runner's determinism contract extends to the hybrid
     backend: merged statistics are bit-identical at any --jobs. *)
  let config = hybrid_config () in
  let sweep jobs =
    Runner.run_summary ~jobs ~metrics:[ "time-avg N"; "final N" ] ~master_seed:11
      ~replications:8 (fun ~rng ~index:_ ->
        let stats, _ = Sim_hybrid.run ~rng config ~horizon:40.0 in
        Runner.rep [| stats.Sim_hybrid.time_avg_n; stats.Sim_hybrid.final_n |])
  in
  let s1 = sweep 1 and s2 = sweep 2 in
  List.iter2
    (fun (name, w1) (_, w2) ->
      Alcotest.(check (float 0.0))
        (name ^ " merged mean bit-identical across jobs")
        (P2p_stats.Welford.mean w1) (P2p_stats.Welford.mean w2))
    s1.Runner.stats s2.Runner.stats

let test_hybrid_samples_monotone () =
  (* One continuous sampling grid across all segments: times strictly
     increase through every handoff. *)
  let config = hybrid_config () in
  let stats, _ = Sim_hybrid.run_seeded ~seed:3 config ~horizon:60.0 in
  Alcotest.(check bool) "has switches" true (stats.Sim_hybrid.switches <> []);
  let times = Array.map fst stats.Sim_hybrid.samples in
  for i = 1 to Array.length times - 1 do
    Alcotest.(check bool) "strictly increasing grid" true (times.(i) > times.(i - 1))
  done

(* A probe step finer than the sampling grid's (0.1 against 0.25): each
   resumed segment continues the probe grid after the previous segment's
   end, so through handoffs both ways every probe grid point is sampled
   once and in order, and the probed run is the unprobed one. *)
let test_hybrid_fine_probe_grid () =
  let horizon = 50.0 and interval = 0.1 in
  let times = ref [] in
  let probe =
    P2p_obs.Probe.make ~interval ~on_sample:(fun s -> times := s.P2p_obs.Probe.time :: !times) ()
  in
  let probed, xp = Sim_hybrid.run_seeded ~probe ~seed:7 (hybrid_config ()) ~horizon in
  let plain, x = Sim_hybrid.run_seeded ~seed:7 (hybrid_config ()) ~horizon in
  let dirs = List.map (fun (s : Sim_hybrid.switch) -> s.to_fluid) probed.Sim_hybrid.switches in
  Alcotest.(check bool) "hands off to the fluid" true (List.mem true dirs);
  Alcotest.(check bool) "hands back to the CTMC" true (List.mem false dirs);
  let times = Array.of_list (List.rev !times) in
  (* 0, 0.1, …, 49.9: the grid accumulates its step, so its point at 50
     lands a few ulps past the horizon, as in an unsegmented run. *)
  Alcotest.(check int) "one probe per grid point" 500 (Array.length times);
  Array.iteri
    (fun i t ->
      if Float.abs (t -. (float_of_int i *. interval)) > 1e-9 then
        Alcotest.failf "probe %d at %.17g, off the grid point %g" i t (float_of_int i *. interval))
    times;
  Alcotest.(check bool) "switches" true (probed.switches = plain.switches);
  Alcotest.(check bool) "samples" true (probed.samples = plain.samples);
  Alcotest.(check int) "events" plain.events probed.events;
  Alcotest.(check int) "max N" plain.max_n probed.max_n;
  Alcotest.(check int64) "time-avg N bits" (Int64.bits_of_float plain.time_avg_n)
    (Int64.bits_of_float probed.time_avg_n);
  Alcotest.(check bool) "final state" true (x = xp)

let test_hybrid_one_sample_per_grid_point () =
  (* Fluid segments read grid points from the dense output and record
     only those before their [until] crossing from the crossing step:
     through handoffs both ways, every grid point is sampled once. *)
  let every = 0.25 and horizon = 60.0 in
  let stats, _ =
    Sim_hybrid.run_seeded ~sample_every:every ~seed:7 (hybrid_config ()) ~horizon
  in
  let dirs = List.map (fun (s : Sim_hybrid.switch) -> s.to_fluid) stats.Sim_hybrid.switches in
  Alcotest.(check bool) "hands off to the fluid" true (List.mem true dirs);
  Alcotest.(check bool) "hands back to the CTMC" true (List.mem false dirs);
  Alcotest.(check int) "one sample per grid point" 241 (Array.length stats.samples);
  Array.iteri
    (fun i (t, _) -> Alcotest.(check (float 0.0)) "grid time" (float_of_int i *. every) t)
    stats.samples

(* ---- the stochastic side of the handoff: until / resume ---- *)

let test_markov_until_and_resume () =
  let params = Scenario.flash_crowd ~k:2 ~lambda:40.0 ~us:50.0 ~mu:1.0 ~gamma:infinity in
  let config = Sim_markov.default_config params in
  let rng = P2p_prng.Rng.of_seed 5 in
  let stats, st =
    Sim_markov.run ~rng ~sample_every:1.0 ~until:(fun ~time:_ ~n -> n >= 50) config
      ~horizon:1000.0
  in
  Alcotest.(check bool) "stopped" true stats.Sim_markov.stopped;
  Alcotest.(check bool) "stopped early" true (stats.Sim_markov.final_time < 1000.0);
  Alcotest.(check int) "stopped at the threshold" 50 (State.n st);
  (* Resume from the stop point: the clock and the sampling grid
     continue where the first segment left off. *)
  let last_sample = fst stats.samples.(Array.length stats.samples - 1) in
  let resume =
    { Engine.t0 = stats.Sim_markov.final_time; grid_after = last_sample; frun = None }
  in
  let initial =
    List.filter_map
      (fun set ->
        let c = State.count st set in
        if c > 0 then Some (set, c) else None)
      (List.init 4 (fun i -> PS.of_index i))
  in
  let stats2, _ =
    Sim_markov.run ~rng ~sample_every:1.0 ~resume
      { config with initial }
      ~horizon:(stats.Sim_markov.final_time +. 5.0)
  in
  Alcotest.(check bool) "clock resumes" true
    (stats2.Sim_markov.final_time >= stats.Sim_markov.final_time);
  Array.iter
    (fun (t, _) ->
      Alcotest.(check bool) "grid continues past the first segment" true (t > last_sample))
    stats2.Sim_markov.samples

let () =
  Alcotest.run "fluid-validation"
    [
      ( "cross-validation",
        [
          Alcotest.test_case "stable k=2 γ=∞" `Quick test_stable_k2_gamma_inf;
          Alcotest.test_case "stable k=2 γ=∞ scaled" `Quick test_stable_k2_gamma_inf_scaled;
          Alcotest.test_case "stable k=3 γ=2" `Quick test_stable_k3_finite_gamma;
          Alcotest.test_case "stable k=3 γ=2 scaled" `Quick test_stable_k3_finite_gamma_scaled;
          Alcotest.test_case "transient k=2 γ=∞" `Quick test_transient_k2_gamma_inf;
          Alcotest.test_case "transient k=3 γ=2" `Quick test_transient_k3_finite_gamma;
          Alcotest.test_case "two-chunk closed form" `Quick test_two_chunk_closed_form;
        ] );
      ( "hybrid determinism",
        [
          Alcotest.test_case "bit-identical rerun" `Quick test_hybrid_deterministic_rerun;
          Alcotest.test_case "bit-identical across jobs" `Quick
            test_hybrid_deterministic_across_jobs;
          Alcotest.test_case "monotone sample grid" `Quick test_hybrid_samples_monotone;
          Alcotest.test_case "one sample per grid point" `Quick
            test_hybrid_one_sample_per_grid_point;
          Alcotest.test_case "fine probe grid across handoffs" `Quick test_hybrid_fine_probe_grid;
          Alcotest.test_case "markov until/resume" `Quick test_markov_until_and_resume;
        ] );
    ]
