(* P1: bechamel microbenchmarks of the hot kernels.

   One Test.make per kernel; OLS estimate of ns/run printed as a table.
   These quantify the design choices called out in DESIGN.md: aggregate vs
   agent simulation cost, subspace insertion, field arithmetic, and the
   heap/event machinery. *)

open Bechamel
open Toolkit
module PS = P2p_pieceset.Pieceset
open P2p_core

let markov_sim_test =
  let params = Scenario.flash_crowd ~k:4 ~lambda:1.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  Test.make ~name:"sim_markov: 50 time units (K=4, stable)"
    (Staged.stage (fun () ->
         ignore (Sim_markov.run_seeded ~seed:1 (Sim_markov.default_config params) ~horizon:50.0)))

let agent_sim_test =
  let params = Scenario.flash_crowd ~k:4 ~lambda:1.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  Test.make ~name:"sim_agent: 50 time units (K=4, stable)"
    (Staged.stage (fun () ->
         ignore (Sim_agent.run_seeded ~seed:1 (Sim_agent.default_config params) ~horizon:50.0)))

let agent_rarest_test =
  let params = Scenario.flash_crowd ~k:4 ~lambda:1.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let config = { (Sim_agent.default_config params) with policy = Policy.rarest_first } in
  Test.make ~name:"sim_agent: 50 time units, rarest-first"
    (Staged.stage (fun () -> ignore (Sim_agent.run_seeded ~seed:1 config ~horizon:50.0)))

let coded_sim_test =
  let g = { Stability.Coded.q = 16; k = 8; us = 0.0; mu = 1.0; gamma = infinity;
            lambda0 = 0.6; lambda1 = 0.4 } in
  Test.make ~name:"sim_coded: 50 time units (q=16, K=8)"
    (Staged.stage (fun () ->
         ignore (Sim_coded.run_seeded ~seed:1 (Sim_coded.of_gift g) ~horizon:50.0)))

let transitions_test =
  let params = Scenario.flash_crowd ~k:6 ~lambda:1.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let rng = P2p_prng.Rng.of_seed 3 in
  let entries =
    List.filter_map
      (fun c ->
        let count = P2p_prng.Rng.int_below rng 5 in
        if count > 0 then Some (PS.of_index c, count) else None)
      (List.init 64 (fun i -> i))
  in
  let state = State.of_counts entries in
  Test.make ~name:"generator row (K=6, 64 types)"
    (Staged.stage (fun () -> ignore (Rate.transitions params state)))

let lyapunov_drift_test =
  let params = Scenario.example3 ~lambda1:1.0 ~lambda2:1.0 ~lambda3:1.0 ~mu:1.0 ~gamma:1.5 in
  let coeffs = Lyapunov.default_coeffs params in
  let state = State.of_counts [ (PS.of_list [ 0; 1 ], 500); (PS.singleton 2, 20) ] in
  Test.make ~name:"exact Lyapunov drift QW (K=3)"
    (Staged.stage (fun () -> ignore (Lyapunov.drift_w params coeffs state)))

let gf_rank_test =
  let f = P2p_gf.Field.gf 64 in
  let rng = P2p_prng.Rng.of_seed 4 in
  let rows =
    Array.init 24 (fun _ -> P2p_gf.Mat.random_vec f (P2p_prng.Rng.int_below rng) 24)
  in
  Test.make ~name:"GF(64) rank of 24x24"
    (Staged.stage (fun () -> ignore (P2p_gf.Mat.rank f rows)))

let subspace_insert_test =
  let f = P2p_gf.Field.gf 16 in
  let rng = P2p_prng.Rng.of_seed 5 in
  let vectors =
    Array.init 16 (fun _ -> P2p_gf.Mat.random_vec f (P2p_prng.Rng.int_below rng) 16)
  in
  Test.make ~name:"subspace build: 16 inserts in F_16^16"
    (Staged.stage (fun () ->
         let s = P2p_coding.Subspace.create f ~k:16 in
         Array.iter (fun v -> ignore (P2p_coding.Subspace.insert s v)) vectors))

let heap_test =
  let rng = P2p_prng.Rng.of_seed 6 in
  let keys = Array.init 1000 (fun _ -> P2p_prng.Rng.float rng) in
  Test.make ~name:"heap: 1000 push + pop"
    (Staged.stage (fun () ->
         let h = P2p_des.Heap.create () in
         Array.iter (fun k -> ignore (P2p_des.Heap.insert h ~key:k ())) keys;
         while not (P2p_des.Heap.is_empty h) do
           ignore (P2p_des.Heap.pop_min h)
         done))

let mu_inf_test =
  Test.make ~name:"mu=inf process: 10k steps"
    (Staged.stage
       (let rng = P2p_prng.Rng.of_seed 7 in
        let cfg = { Mu_infinity.k = 3; lambda = 1.0 } in
        fun () ->
          ignore (Mu_infinity.simulate rng cfg ~init:{ Mu_infinity.n = 10; pieces = 2 } ~steps:10_000)))

let fluid_test =
  let params = Scenario.example3 ~lambda1:1.0 ~lambda2:1.0 ~lambda3:1.0 ~mu:1.0 ~gamma:1.5 in
  let init = Fluid.of_state ~k:3 (State.create ()) in
  Test.make ~name:"fluid RK45 adaptive: 10 time units (K=3)"
    (Staged.stage (fun () ->
         ignore (Fluid.integrate params ~init ~dt:0.01 ~horizon:10.0 ~record_every:1000)))

(* The fluid right-hand side where it costs: K = 8 with all 256 types
   occupied, as past the first instants of a million-peer fluid run.
   The kernel is owned by the caller, as in Sim_fluid. *)
let fluid_rhs_test =
  let params = Scenario.flash_crowd ~k:8 ~lambda:100.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let rng = P2p_prng.Rng.of_seed 8 in
  let x = Array.init (Fluid.dim params) (fun _ -> 1.0 +. (1e4 *. P2p_prng.Rng.float rng)) in
  let dx = Array.make (Fluid.dim params + Fluid.aug_slots) 0.0 in
  let kernel = Rate.kernel ~k:8 in
  Test.make ~name:"fluid RHS drift_into (K=8, 256 types occupied)"
    (Staged.stage (fun () ->
         Fluid.drift_into params ~kernel ~us_scale:1.0 ~abort_rate:0.0 ~loss_factor:1.0 x dx))

let tests =
  [
    markov_sim_test;
    agent_sim_test;
    agent_rarest_test;
    coded_sim_test;
    transitions_test;
    lyapunov_drift_test;
    gf_rank_test;
    subspace_insert_test;
    heap_test;
    mu_inf_test;
    fluid_test;
    fluid_rhs_test;
  ]

(* P2: multicore scaling of the replication runner.

   An embarrassingly parallel sweep — R independent Sim_markov
   replications — timed at 1, 2 and 4 domains.  Three things to check in
   the output: wall-clock speedup approaching the domain count (on a
   machine with that many cores), per-domain utilisation near 100%, and
   the merged mean being IDENTICAL in every row (the runner's
   determinism guarantee; the bit-identity is also enforced by
   test_runner.ml). *)

module Runner = P2p_runner.Runner

let scaling () =
  P2p_core.Report.banner "P2  replication-runner scaling (1/2/4 domains)";
  let params = Scenario.flash_crowd ~k:4 ~lambda:1.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let reps = 32 in
  let sweep jobs =
    Runner.run_summary ~jobs ~metrics:[ "time-avg N" ] ~master_seed:7 ~replications:reps
      (fun ~rng ~index:_ ->
        let stats, _ = Sim_markov.run ~rng (Sim_markov.default_config params) ~horizon:150.0 in
        Runner.rep [| stats.time_avg_n |])
  in
  Printf.printf "%d replications of Sim_markov (K=4, stable, horizon 150); %d cores recommended\n"
    reps
    (Domain.recommended_domain_count ());
  let reference = sweep 1 in
  let t1 = reference.timing.wall_s in
  let ref_mean = P2p_stats.Welford.mean (snd (List.hd reference.stats)) in
  let row (summary : Runner.summary) =
    let mean = P2p_stats.Welford.mean (snd (List.hd summary.stats)) in
    [
      string_of_int summary.timing.jobs;
      Printf.sprintf "%.3f" summary.timing.wall_s;
      Printf.sprintf "%.2fx" (t1 /. summary.timing.wall_s);
      Printf.sprintf "%.0f%%" (100.0 *. Runner.utilisation summary.timing);
      Printf.sprintf "%.10g" mean;
      (if mean = ref_mean then "yes" else "NO");
    ]
  in
  P2p_core.Report.table
    ~header:[ "domains"; "wall (s)"; "speedup"; "busy"; "merged mean N"; "bit-identical" ]
    (row reference :: List.map (fun jobs -> row (sweep jobs)) [ 2; 4 ])

(* P3: machine-readable performance baseline (BENCH_PR3.json).

   Three sections, written with the in-tree JSON emitter:

   - events/sec of both simulators on the same stable flash-crowd config,
     measured with telemetry off, with swarm probes sampling, and with
     the flight recorder and histograms attached — quantifying the
     observability overhead promised in DESIGN.md Section 10;
   - replication-runner scaling at 1/2/4 domains (wall, speedup,
     utilisation) with the bit-identity of the merged mean asserted;
   - the probe series determinism witness: the merged mean must match
     across every jobs count.

   The quick variant shrinks horizons/reps so CI can run it as a smoke
   test; the full variant regenerates the committed baseline. *)

module Json = P2p_obs.Json
module Probe = P2p_obs.Probe
module Series = P2p_obs.Series
module Hist = P2p_obs.Hist
module Recorder = P2p_obs.Recorder
module Monitor = P2p_obs.Monitor

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let sim_section ~quick =
  let params = Scenario.flash_crowd ~k:4 ~lambda:1.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  (* The quick horizon still needs tens of milliseconds of events per
     run: the smoke figure feeds the bench-gate, whose instrumented
     floor is a few percent — shorter walls are all scheduler noise. *)
  let horizon = if quick then 1000.0 else 2000.0 in
  let sampling_probe () =
    let interval = horizon /. 200.0 in
    let series = Series.create ~k:4 ~interval in
    Probe.make ~interval ~on_sample:(Series.record series) ()
  in
  (* The per-event live-observability stack — flight recorder plus
     event-count and phase-cost histograms.  This is the configuration
     the bench-gate bounds: the contract in DESIGN.md is recorder +
     hists ≤ 5% events/s overhead vs bare.  The syndrome monitor rides
     the sampling grid, so its cost is the sampling column's, already
     reported separately. *)
  let instrumented_probe () =
    Probe.make ~recorder:(Recorder.create ~capacity:256 ()) ~hists:(Hist.group ()) ()
  in
  (* Best wall time of [rounds] runs per configuration: the least-
     interference estimate.  Single runs of a ~10ms simulation on a
     shared box swing by 2x; the minimum is stable.  The instrumented
     floor compares two of these minima, so it needs enough rounds for
     both to converge — the true instrumented overhead is ~3% (about
     12 ns of probe work on a ~400 ns event), well inside the 5%
     budget, but one noisy wall fakes a violation. *)
  let rounds = if quick then 6 else 8 in
  let measure name run =
    (* [probe] is a thunk: sampling probes accumulate a time series, so
       each round needs a fresh one.  Configurations are interleaved
       round-robin (off, sampling, instrumented, repeat) so CPU
       frequency drift and neighbour noise hit every configuration
       equally — the instrumented-overhead gate compares these walls
       against each other, not across runs. *)
    let configs =
      [| (fun () -> Probe.none); sampling_probe; instrumented_probe |]
    in
    let best = Array.make (Array.length configs) infinity in
    let events_off = ref 0 in
    (* The instrumented-overhead ratio is PAIRED per round: the bare and
       instrumented walls of the same round ran back-to-back, so CPU
       frequency drift across rounds cancels out of their quotient.  The
       gate then takes the cleanest round — the ratio of global minima
       would compare walls from different frequency regimes and swing by
       more than the 5% budget it is supposed to police. *)
    let best_ratio = ref 0.0 in
    for _ = 1 to rounds do
      let walls = Array.make (Array.length configs) nan in
      Array.iteri
        (fun i probe ->
          let stats, wall = timed (fun () -> run (probe ())) in
          if i = 0 then events_off := stats;
          walls.(i) <- wall;
          if wall < best.(i) then best.(i) <- wall)
        configs;
      let r = walls.(0) /. walls.(2) in
      if r > !best_ratio then best_ratio := r
    done;
    let events_off = !events_off in
    let wall_off = best.(0)
    and wall_sampling = best.(1)
    and wall_instrumented = best.(2) in
    let eps wall = if wall > 0.0 then float_of_int events_off /. wall else nan in
    ( name,
      Json.Obj
        [
          ("events", Json.Int events_off);
          ("horizon", Json.Float horizon);
          ("wall_s", Json.Float wall_off);
          ("events_per_sec", Json.Float (eps wall_off));
          ("events_per_sec_probe_sampling", Json.Float (eps wall_sampling));
          ("events_per_sec_instrumented", Json.Float (eps wall_instrumented));
          ("instrumented_ratio", Json.Float !best_ratio);
        ] )
  in
  (* The coded workload mirrors the flash-crowd one: K = 4,
     stable side, same horizon, so the three events/s figures are
     comparable and the k=4 sampling probe fits all of them. *)
  let coded_config =
    Sim_coded.of_gift
      { Stability.Coded.q = 16; k = 4; us = 1.0; mu = 1.0; gamma = 2.0;
        lambda0 = 0.65; lambda1 = 0.35 }
  in
  [
    measure "sim_markov" (fun probe ->
        let s, _ =
          Sim_markov.run_seeded ~probe ~seed:1 (Sim_markov.default_config params) ~horizon
        in
        s.Sim_markov.events);
    measure "sim_agent" (fun probe ->
        let s, _ =
          Sim_agent.run_seeded ~probe ~seed:1 (Sim_agent.default_config params) ~horizon
        in
        s.Peers.events);
    measure "sim_coded" (fun probe ->
        let s = Sim_coded.run_seeded ~probe ~seed:1 coded_config ~horizon in
        s.Sim_coded.events);
  ]

let scaling_section ~quick =
  let params = Scenario.flash_crowd ~k:4 ~lambda:1.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let reps = if quick then 8 else 64 in
  let horizon = if quick then 50.0 else 300.0 in
  let sweep jobs =
    Runner.run_summary ~jobs ~metrics:[ "time-avg N" ] ~master_seed:7 ~replications:reps
      (fun ~rng ~index:_ ->
        let stats, _ = Sim_markov.run ~rng (Sim_markov.default_config params) ~horizon in
        Runner.rep [| stats.Sim_markov.time_avg_n |])
  in
  (* Same best-of discipline as the simulator section: keep the sweep
     with the least interference per jobs count.  Every sweep returns
     bit-identical aggregates, so this only selects a timing. *)
  let rounds = if quick then 1 else 3 in
  let best_sweep jobs =
    let best = ref (sweep jobs) in
    for _ = 2 to rounds do
      let s = sweep jobs in
      if s.Runner.timing.wall_s < !best.Runner.timing.wall_s then best := s
    done;
    !best
  in
  let reference = best_sweep 1 in
  let t1 = reference.Runner.timing.wall_s in
  let ref_mean = P2p_stats.Welford.mean (snd (List.hd reference.Runner.stats)) in
  let row (summary : Runner.summary) =
    let mean = P2p_stats.Welford.mean (snd (List.hd summary.stats)) in
    Json.Obj
      [
        ("jobs", Json.Int summary.timing.jobs);
        ("wall_s", Json.Float summary.timing.wall_s);
        ("speedup", Json.Float (t1 /. summary.timing.wall_s));
        ("utilisation", Json.Float (Runner.utilisation summary.timing));
        ("merged_mean_n", Json.Float mean);
        ("bit_identical", Json.Bool (mean = ref_mean));
      ]
  in
  ( Json.List (row reference :: List.map (fun jobs -> row (best_sweep jobs)) [ 2; 4 ]),
    ("replications", Json.Int reps) )

(* The fluid backend's headline benchmark: a million-peer flash crowd,
   infeasible for any of the event-driven simulators, integrated to the
   horizon by the adaptive stepper.  The figure of merit is accepted
   steps/second — the stepper's throughput is population-independent, so
   this is the number the bench-gate can hold steady — plus the absolute
   wall clock, which the gate caps so the million-peer scenario stays
   interactive. *)
let fluid_section ~quick =
  let k = 8 in
  let params = Scenario.flash_crowd ~k ~lambda:100.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let peers = 1e6 in
  let horizon = if quick then 50.0 else 100.0 in
  let config = { (Sim_fluid.default_config params) with initial = [ (PS.empty, peers) ] } in
  let rounds = if quick then 2 else 3 in
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to rounds do
    let (stats, _), wall = timed (fun () -> Sim_fluid.run_seeded ~seed:1 config ~horizon) in
    last := Some stats;
    if wall < !best then best := wall
  done;
  let stats = Option.get !last in
  let wall = !best in
  let steps = stats.Sim_fluid.steps in
  ( "fluid",
    Json.Obj
      [
        ("peers", Json.Float peers);
        ("k", Json.Int k);
        ("horizon", Json.Float horizon);
        ("steps", Json.Int steps);
        ("rejected_steps", Json.Int stats.Sim_fluid.rejected_steps);
        ("rhs_evals", Json.Int stats.Sim_fluid.rhs_evals);
        ("wall_s", Json.Float wall);
        ("steps_per_sec", Json.Float (if wall > 0.0 then float_of_int steps /. wall else nan));
        ("time_avg_n", Json.Float stats.Sim_fluid.time_avg_n);
        ("final_n", Json.Float stats.Sim_fluid.final_n);
      ] )

(* P4: before/after against the committed PR3 baseline, and the CI bench
   gate.  Both read baselines back through the in-tree JSON parser. *)

let read_json_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Json.of_string s with Ok j -> Some j | Error _ -> None)

let sim_field ~sim name j =
  Option.bind (Json.member "simulators" j) (fun sims ->
      Option.bind (Json.member sim sims) (fun s ->
          Option.bind (Json.member name s) Json.to_float_opt))

let events_per_sec ~sim j = sim_field ~sim "events_per_sec" j

(* The throughput each simulator is gated on.  sim_markov races only
   contacts between different piece sets, so its event count follows the
   state changes and events/s no longer tracks its speed: it is gated on
   simulated time per wall-second (horizon / wall_s) instead. *)
let gated_rate ~sim j =
  if sim = "sim_markov" then
    match (sim_field ~sim "horizon" j, sim_field ~sim "wall_s" j) with
    | Some h, Some w when w > 0.0 -> Some (h /. w)
    | _ -> None
  else events_per_sec ~sim j

let gated_unit sim = if sim = "sim_markov" then "sim-time/s" else "events/s"

(* Ratcheted floors in each simulator's gated unit.  sim_markov's is its
   PR4 peak of 3.68M events/s converted at the BENCH_PR9 baseline's
   24,427 events per 2,000 time units. *)
let ratchet_floors = [ ("sim_markov", 3.68e6 *. 2000.0 /. 24_427.0); ("sim_coded", 2.0e6) ]

(* Per-simulator before/after speedup vs the committed PR3 baseline;
   [Null] when the baseline file is absent (e.g. a bare checkout).
   Simulators that baseline never measured (coded) are
   skipped rather than reported as null speedups. *)
let vs_baseline_section sims =
  match read_json_file "BENCH_PR3.json" with
  | None -> ("vs_pr3_baseline", Json.Null)
  | Some base ->
      let cmp (name, fields) =
        match events_per_sec ~sim:name base with
        | None -> None
        | Some before ->
            let after =
              match Json.member "events_per_sec" fields with
              | Some v -> Option.value (Json.to_float_opt v) ~default:nan
              | None -> nan
            in
            Some
              ( name,
                Json.Obj
                  [
                    ("events_per_sec_before", Json.Float before);
                    ("events_per_sec_after", Json.Float after);
                    ("speedup", Json.Float (after /. before));
                  ] )
      in
      ("vs_pr3_baseline", Json.Obj (List.filter_map cmp sims))

let bench_json_to ~quick path =
  let sims = sim_section ~quick in
  let scaling_rows, reps_field = scaling_section ~quick in
  let j =
    Json.Obj
      [
        ("bench", Json.String "p2p swarm simulator performance baseline");
        ("pr", Json.Int 9);
        ("quick", Json.Bool quick);
        ("simulators", Json.Obj sims);
        fluid_section ~quick;
        vs_baseline_section sims;
        ("runner_scaling", scaling_rows);
        reps_field;
        ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ]
  in
  Json.write_file_atomic path (fun oc ->
      Json.to_channel oc j;
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

let bench_json () = bench_json_to ~quick:false "BENCH_PR9.json"
let bench_json_quick () = bench_json_to ~quick:true "BENCH_smoke.json"

(* The CI regression gate: compare a fresh quick-bench throughput figure
   ([gated_rate]) against the committed baseline and fail below 70% (a
   −30% threshold — loose enough for shared CI runners, tight enough to
   catch a hot-path regression).  Paths are overridable so the gate can also diff two
   fresh runs locally. *)
let bench_gate () =
  let getenv name default =
    match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> default
  in
  let baseline_path = getenv "BENCH_GATE_BASELINE" "BENCH_PR9.json" in
  let fresh_path = getenv "BENCH_GATE_NEW" "BENCH_smoke.json" in
  let threshold = 0.70 in
  (* Absolute ceiling on the fluid million-peer scenario: the smoke
     variant covers half the baseline horizon, so anything past this is
     a step-control regression, not runner noise. *)
  let fluid_wall_ceiling_s = 120.0 in
  match (read_json_file baseline_path, read_json_file fresh_path) with
  | None, _ ->
      (* No baseline is not a failure: the gate guards regressions against
         a committed reference, it does not require one to exist. *)
      Printf.printf "bench-gate: no baseline at %s, skipping\n" baseline_path
  | _, None ->
      Printf.eprintf "bench-gate: cannot read fresh results at %s\n" fresh_path;
      exit 1
  | Some base, Some fresh ->
      let failed = ref false in
      List.iter
        (fun sim ->
          match (gated_rate ~sim base, gated_rate ~sim fresh) with
          | Some b, Some f when b > 0.0 ->
              let ratio = f /. b in
              Printf.printf "bench-gate: %s %.3g -> %.3g %s (%.0f%% of baseline)\n" sim b f
                (gated_unit sim) (100.0 *. ratio);
              if ratio < threshold then begin
                Printf.eprintf "bench-gate: %s fell below %.0f%% of the %s baseline\n" sim
                  (100.0 *. threshold) baseline_path;
                failed := true
              end
          | _ ->
              Printf.eprintf "bench-gate: missing %s for %s\n" (gated_unit sim) sim;
              failed := true)
        [ "sim_markov"; "sim_agent"; "sim_coded" ];
      (* Ratcheted absolute floors, held against the COMMITTED baseline
         (full-bench figures — the fresh quick run measures lower on
         shorter walls and is policed by the relative threshold above).
         sim_markov must stay above its PR4 peak and sim_coded — its own
         gate row, so a GF kernel regression cannot hide in the
         aggregate — above the PR9 target. *)
      List.iter
        (fun (sim, floor) ->
          match gated_rate ~sim base with
          | Some b ->
              Printf.printf "bench-gate: %s baseline %.3g %s (ratchet floor %.3g)\n" sim b
                (gated_unit sim) floor;
              if b < floor then begin
                Printf.eprintf "bench-gate: %s committed baseline fell below the %.3g %s ratchet\n"
                  sim floor (gated_unit sim);
                failed := true
              end
          | None ->
              Printf.eprintf "bench-gate: missing baseline %s for %s\n" (gated_unit sim) sim;
              failed := true)
        ratchet_floors;
      (* The fresh quick figure still has to clear the same floors at the
         cross-run threshold, so a live regression fails even when the
         committed baseline is healthy. *)
      List.iter
        (fun (sim, floor) ->
          match gated_rate ~sim fresh with
          | Some f when f < threshold *. floor ->
              Printf.eprintf "bench-gate: %s fresh run %.3g below %.0f%% of the %.3g %s ratchet\n"
                sim f (100.0 *. threshold) floor (gated_unit sim);
              failed := true
          | _ -> ())
        ratchet_floors;
      (* Live-observability overhead contract: flight recorder +
         histograms attached must keep ≥ 95% of bare events/s.  This is
         a within-run ratio (the walls are interleaved round-robin by
         the same process), so it holds to a much tighter floor than the
         cross-run regression threshold above. *)
      let instrumented_floor = 0.95 in
      List.iter
        (fun sim ->
          let ratio =
            Option.bind (Json.member "simulators" fresh) (fun sims ->
                Option.bind (Json.member sim sims) (fun s ->
                    Option.bind (Json.member "instrumented_ratio" s) Json.to_float_opt))
          in
          match ratio with
          | Some r ->
              Printf.printf "bench-gate: %s instrumented at %.0f%% of bare (floor %.0f%%)\n" sim
                (100.0 *. r) (100.0 *. instrumented_floor);
              if r < instrumented_floor then begin
                Printf.eprintf
                  "bench-gate: %s live-observability overhead exceeded the %.0f%% budget\n" sim
                  (100.0 *. (1.0 -. instrumented_floor));
                failed := true
              end
          | None ->
              Printf.eprintf "bench-gate: missing instrumented_ratio for %s\n" sim;
              failed := true)
        [ "sim_markov"; "sim_agent"; "sim_coded" ];
      let fluid_field name j =
        Option.bind (Json.member "fluid" j) (fun f ->
            Option.bind (Json.member name f) Json.to_float_opt)
      in
      (match (fluid_field "steps_per_sec" base, fluid_field "steps_per_sec" fresh) with
      | Some b, Some f when b > 0.0 ->
          let ratio = f /. b in
          Printf.printf "bench-gate: fluid %.3g -> %.3g steps/s (%.0f%% of baseline)\n" b f
            (100.0 *. ratio);
          if ratio < threshold then begin
            Printf.eprintf "bench-gate: fluid stepper fell below %.0f%% of the %s baseline\n"
              (100.0 *. threshold) baseline_path;
            failed := true
          end
      | None, _ ->
          (* A pre-PR6 baseline has no fluid section; the steps/s gate
             holds whenever a PR6+ baseline is the reference. *)
          Printf.printf "bench-gate: baseline has no fluid section, skipping steps/s ratio\n"
      | _ ->
          Printf.eprintf "bench-gate: missing fluid steps_per_sec in fresh results\n";
          failed := true);
      (match fluid_field "wall_s" fresh with
      | Some w ->
          Printf.printf "bench-gate: fluid million-peer wall %.3gs (ceiling %gs)\n" w
            fluid_wall_ceiling_s;
          if w > fluid_wall_ceiling_s then begin
            Printf.eprintf "bench-gate: fluid million-peer scenario exceeded the %gs ceiling\n"
              fluid_wall_ceiling_s;
            failed := true
          end
      | None ->
          Printf.eprintf "bench-gate: missing fluid wall_s in fresh results\n";
          failed := true);
      if !failed then exit 1;
      print_endline "bench-gate: OK"

let run () =
  P2p_core.Report.banner "P1  microbenchmarks (bechamel, OLS ns/run)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let raws = Benchmark.all cfg instances (Test.make_grouped ~name:"perf" tests) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raws in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (est :: _) -> est | Some [] | None -> nan
        in
        let r2 = Option.value (Analyze.OLS.r_square ols) ~default:nan in
        (estimate, [ name; Printf.sprintf "%.0f" estimate; Printf.sprintf "%.4f" r2 ]) :: acc)
      results []
  in
  let rows = List.sort (fun (a, _) (b, _) -> Float.compare a b) rows in
  P2p_core.Report.table ~header:[ "kernel"; "ns/run"; "r^2" ] (List.map snd rows)
