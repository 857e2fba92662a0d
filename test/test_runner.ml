(* The parallel-correctness layer for the Monte-Carlo replication runner:
   merged aggregates must be bit-identical for every domain count (and
   across back-to-back runs), exceptions must propagate, and the runner
   must reproduce the sequential simulators exactly. *)

module Runner = P2p_runner.Runner
module Rng = P2p_prng.Rng
module Welford = P2p_stats.Welford
open P2p_core

let stable_params = Scenario.flash_crowd ~k:3 ~lambda:0.5 ~us:0.8 ~mu:1.0 ~gamma:2.0

(* A realistic thunk: a short Markov-chain simulation and its metrics. *)
let sim_thunk ~rng ~index:_ =
  let stats, _ = Sim_markov.run ~rng (Sim_markov.default_config stable_params) ~horizon:60.0 in
  Runner.rep [| stats.time_avg_n; float_of_int stats.final_n; float_of_int stats.transfers |]

let summary jobs =
  Runner.run_summary ~jobs
    ~metrics:[ "time-avg N"; "final N"; "transfers" ]
    ~master_seed:2024 ~replications:16 sim_thunk

(* Bit-identical: Float.equal on every accumulator component, no tolerance. *)
let check_welford_identical name a b =
  Alcotest.(check int) (name ^ ": count") (Welford.count a) (Welford.count b);
  Alcotest.(check bool)
    (Printf.sprintf "%s: mean %.17g = %.17g" name (Welford.mean a) (Welford.mean b))
    true
    (Float.equal (Welford.mean a) (Welford.mean b));
  Alcotest.(check bool) (name ^ ": variance") true
    (Float.equal (Welford.variance a) (Welford.variance b));
  Alcotest.(check bool) (name ^ ": min") true
    (Float.equal (Welford.min_value a) (Welford.min_value b));
  Alcotest.(check bool) (name ^ ": max") true
    (Float.equal (Welford.max_value a) (Welford.max_value b))

let check_summary_identical name (a : Runner.summary) (b : Runner.summary) =
  List.iter2
    (fun (na, wa) (nb, wb) ->
      Alcotest.(check string) (name ^ ": metric name") na nb;
      check_welford_identical (name ^ "/" ^ na) wa wb)
    a.stats b.stats

let test_deterministic_across_jobs () =
  let s1 = summary 1 and s2 = summary 2 and s4 = summary 4 in
  Alcotest.(check int) "jobs=1 used 1 domain" 1 s1.timing.jobs;
  check_summary_identical "jobs 1 vs 2" s1 s2;
  check_summary_identical "jobs 1 vs 4" s1 s4

let test_deterministic_back_to_back () =
  check_summary_identical "run 1 vs run 2" (summary 2) (summary 2)

let test_run_map_indexed_by_replication () =
  (* Results land in replication order regardless of scheduling, and each
     replication sees exactly the stream (master, index). *)
  let f ~rng ~index = (index, Rng.bits64 rng) in
  let seq, _ = Runner.run_map ~jobs:1 ~master_seed:5 ~replications:23 f in
  let par, _ = Runner.run_map ~jobs:4 ~chunk:2 ~master_seed:5 ~replications:23 f in
  Alcotest.(check int) "length" 23 (Array.length par);
  Array.iteri
    (fun i slot ->
      let idx, bits = Option.get slot in
      Alcotest.(check int) "index in slot" i idx;
      let expected = Rng.bits64 (Runner.derive_rng ~master_seed:5 ~index:i) in
      Alcotest.check Alcotest.int64 "derived stream" expected bits;
      Alcotest.check Alcotest.int64 "matches sequential" (snd (Option.get seq.(i))) bits)
    par

let test_matches_sequential_simulator () =
  (* Replication i through the runner = a plain sequential run with the
     derived rng: the runner adds nothing to the stochastic law. *)
  let outputs, _ =
    Runner.run_map ~jobs:3 ~master_seed:99 ~replications:6 (fun ~rng ~index:_ ->
        let stats, _ =
          Sim_markov.run ~rng (Sim_markov.default_config stable_params) ~horizon:40.0
        in
        (stats.events, stats.final_n))
  in
  Array.iteri
    (fun i slot ->
      let events, final_n = Option.get slot in
      let rng = Runner.derive_rng ~master_seed:99 ~index:i in
      let stats, _ =
        Sim_markov.run ~rng (Sim_markov.default_config stable_params) ~horizon:40.0
      in
      Alcotest.(check int) "events" stats.events events;
      Alcotest.(check int) "final n" stats.final_n final_n)
    outputs

let test_zero_replications () =
  let results, timing = Runner.run_map ~jobs:2 ~master_seed:1 ~replications:0 (fun ~rng:_ ~index -> index) in
  Alcotest.(check int) "no results" 0 (Array.length results);
  Alcotest.(check int) "no chunks" 0 timing.chunks;
  let s =
    Runner.run_summary ~jobs:2 ~metrics:[ "m" ] ~master_seed:1 ~replications:0
      (fun ~rng:_ ~index:_ -> Runner.rep [| 0.0 |])
  in
  Alcotest.(check int) "empty accumulator" 0 (Welford.count (snd (List.hd s.stats)))

let test_more_jobs_than_replications () =
  let results, timing =
    Runner.run_map ~jobs:16 ~chunk:1 ~master_seed:3 ~replications:3 (fun ~rng:_ ~index -> index)
  in
  Alcotest.(check int) "domains clamped to chunks" 3 timing.jobs;
  Alcotest.(check (array int)) "all replications ran" [| 0; 1; 2 |]
    (Array.map Option.get results)

let test_invalid_arguments () =
  let check_invalid name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  check_invalid "negative replications" (fun () ->
      Runner.run_map ~master_seed:1 ~replications:(-1) (fun ~rng:_ ~index -> index));
  check_invalid "zero chunk" (fun () ->
      Runner.run_map ~chunk:0 ~master_seed:1 ~replications:4 (fun ~rng:_ ~index -> index));
  check_invalid "zero jobs" (fun () ->
      Runner.run_map ~jobs:0 ~master_seed:1 ~replications:4 (fun ~rng:_ ~index -> index));
  check_invalid "metric arity mismatch" (fun () ->
      Runner.run_summary ~metrics:[ "a"; "b" ] ~master_seed:1 ~replications:4
        (fun ~rng:_ ~index:_ -> Runner.rep [| 1.0 |]));
  check_invalid "retry count < 1" (fun () ->
      Runner.run_map ~on_error:(Runner.Retry 0) ~master_seed:1 ~replications:4
        (fun ~rng:_ ~index -> index))

exception Boom

let test_exception_propagates () =
  Alcotest.(check bool) "raises across domains" true
    (try
       ignore
         (Runner.run_map ~jobs:4 ~chunk:1 ~master_seed:1 ~replications:12
            (fun ~rng:_ ~index -> if index = 7 then raise Boom else index));
       false
     with Boom -> true)

let test_utilisation_sane () =
  let _, timing = Runner.run_map ~jobs:2 ~master_seed:8 ~replications:16 sim_thunk in
  let u = Runner.utilisation timing in
  Alcotest.(check bool) "utilisation in (0, 1.05]" true (u > 0.0 && u <= 1.05);
  Alcotest.(check bool) "wall clock positive" true (timing.wall_s >= 0.0)

(* ---- cross-implementation agreement at scale ----

   test_sim.ml compares single trajectories; here the runner drives 32
   short replications of each simulator on the same stable scenario and
   the two time-average populations must agree within the overlap of
   their 95% confidence intervals.  Deterministic given the master
   seeds, so this cannot flake. *)

let test_markov_vs_agent_at_scale () =
  let reps = 32 and horizon = 400.0 in
  let mean_ci master_seed f =
    let s =
      Runner.run_summary ~metrics:[ "time-avg N" ] ~master_seed ~replications:reps f
    in
    let w = snd (List.hd s.stats) in
    (Welford.mean w, Welford.confidence_interval w ~z:1.96)
  in
  let m_mean, (m_lo, m_hi) =
    mean_ci 7001 (fun ~rng ~index:_ ->
        let stats, _ =
          Sim_markov.run ~rng (Sim_markov.default_config stable_params) ~horizon
        in
        Runner.rep [| stats.time_avg_n |])
  in
  let a_mean, (a_lo, a_hi) =
    mean_ci 7002 (fun ~rng ~index:_ ->
        let stats, _ = Sim_agent.run ~rng (Sim_agent.default_config stable_params) ~horizon in
        Runner.rep [| stats.time_avg_n |])
  in
  Alcotest.(check bool)
    (Printf.sprintf "CI overlap: markov %.3f [%.3f, %.3f] vs agent %.3f [%.3f, %.3f]" m_mean
       m_lo m_hi a_mean a_lo a_hi)
    true
    (m_lo <= a_hi && a_lo <= m_hi)

(* ---- failure isolation ----

   Skip/Retry must (a) name exactly the replications that failed, with
   the exception and its backtrace, (b) leave the surviving
   replications' streams and merged aggregates untouched — bit-identical
   across jobs and equal to a clean sweep's values slot for slot. *)

(* Same draws as a clean thunk, but detonates on one index (after the
   draw, through a helper, so a backtrace frame exists). *)
let detonate () = raise Boom

let flaky_value ~fail_at ~rng ~index =
  let bits = Rng.bits64 rng in
  if index = fail_at then detonate ();
  (index, bits)

let test_skip_names_failure_and_keeps_survivors () =
  Printexc.record_backtrace true;
  let clean, _ =
    Runner.run_map ~jobs:1 ~master_seed:2024 ~replications:12 (flaky_value ~fail_at:(-1))
  in
  let skip, timing =
    Runner.run_map ~jobs:3 ~chunk:2 ~on_error:Runner.Skip ~master_seed:2024 ~replications:12
      (flaky_value ~fail_at:5)
  in
  (match timing.failures with
  | [ f ] ->
      Alcotest.(check int) "failed index" 5 f.index;
      Alcotest.(check bool) "exception preserved" true (f.error = Boom);
      Alcotest.(check bool) "backtrace captured" true
        (Printexc.raw_backtrace_to_string f.backtrace <> "")
  | l -> Alcotest.failf "expected exactly one failure, got %d" (List.length l));
  Array.iteri
    (fun i slot ->
      if i = 5 then Alcotest.(check bool) "failed slot is None" true (slot = None)
      else
        Alcotest.check Alcotest.int64 "survivor untouched"
          (snd (Option.get clean.(i)))
          (snd (Option.get slot)))
    skip

let test_skip_summary_bit_identical_across_jobs () =
  let sweep jobs =
    Runner.run_summary ~jobs ~on_error:Runner.Skip
      ~metrics:[ "time-avg N"; "final N"; "transfers" ]
      ~master_seed:2024 ~replications:16
      (fun ~rng ~index ->
        let r = sim_thunk ~rng ~index in
        if index = 3 || index = 11 then detonate ();
        r)
  in
  let s1 = sweep 1 and s2 = sweep 2 and s4 = sweep 4 in
  List.iter
    (fun (s : Runner.summary) ->
      Alcotest.(check (list int)) "failed indices" [ 3; 11 ]
        (List.map (fun (f : Runner.failure) -> f.index) s.timing.failures))
    [ s1; s2; s4 ];
  check_summary_identical "skip: jobs 1 vs 2" s1 s2;
  check_summary_identical "skip: jobs 1 vs 4" s1 s4;
  (* and equal to a clean 16-replication sweep with the two failed
     replications' contributions absent: count is the cheap witness *)
  Alcotest.(check int) "14 survivors aggregated" 14 (Welford.count (snd (List.hd s1.stats)))

let test_retry_uses_fresh_deterministic_stream () =
  (* The thunk fails exactly when it sees the attempt-0 draw of (42, 3),
     so index 3 fails once and then succeeds on the attempt-1 stream. *)
  let bait = Rng.bits64 (Runner.derive_rng ~master_seed:42 ~index:3) in
  let thunk ~rng ~index:_ =
    let b = Rng.bits64 rng in
    if Int64.equal b bait then detonate ();
    b
  in
  let res, timing =
    Runner.run_map ~jobs:2 ~on_error:(Runner.Retry 2) ~master_seed:42 ~replications:6 thunk
  in
  Alcotest.(check int) "no failures recorded" 0 (List.length timing.failures);
  let expected = Rng.bits64 (Runner.derive_retry_rng ~master_seed:42 ~index:3 ~attempt:1) in
  Alcotest.check Alcotest.int64 "slot 3 holds the attempt-1 value" expected (Option.get res.(3));
  (* every other slot is its ordinary attempt-0 value *)
  for i = 0 to 5 do
    if i <> 3 then
      Alcotest.check Alcotest.int64 "attempt-0 value"
        (Rng.bits64 (Runner.derive_rng ~master_seed:42 ~index:i))
        (Option.get res.(i))
  done

let test_retry_exhaustion_records_failure () =
  Printexc.record_backtrace true;
  let res, timing =
    Runner.run_map ~jobs:1 ~on_error:(Runner.Retry 2) ~master_seed:7 ~replications:4
      (fun ~rng:_ ~index -> if index = 2 then detonate () else index)
  in
  (match timing.failures with
  | [ f ] ->
      Alcotest.(check int) "failed index" 2 f.index;
      Alcotest.(check bool) "exception preserved" true (f.error = Boom)
  | l -> Alcotest.failf "expected exactly one failure, got %d" (List.length l));
  Alcotest.(check bool) "failed slot is None" true (res.(2) = None);
  Alcotest.(check int) "survivor" 3 (Option.get res.(3))

let test_abort_still_propagates_with_backtrace () =
  Printexc.record_backtrace true;
  match
    Runner.run_map ~jobs:2 ~chunk:1 ~on_error:Runner.Abort ~master_seed:1 ~replications:8
      (fun ~rng:_ ~index -> if index = 4 then detonate () else index)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom ->
      let bt = Printexc.get_backtrace () in
      Alcotest.(check bool) "backtrace survives the domain join" true (bt <> "")

let test_flagged_feeds_partial () =
  (* flagged replications count toward summary.partial *)
  let s =
    Runner.run_summary ~jobs:2 ~metrics:[ "m" ] ~master_seed:1 ~replications:8
      (fun ~rng:_ ~index -> Runner.rep ~flagged:(index mod 2 = 0) [| 1.0 |])
  in
  Alcotest.(check int) "flagged -> partial" 4 s.partial;
  Alcotest.(check int) "flagged but aggregated" 8 (Welford.count (snd (List.hd s.stats)))

let test_simulator_truncation_flag_propagates () =
  let s =
    Runner.run_summary ~jobs:1 ~metrics:[ "time-avg N" ] ~master_seed:3 ~replications:2
      (fun ~rng ~index:_ ->
        let stats, _ =
          Sim_markov.run ~max_events:10 ~rng (Sim_markov.default_config stable_params)
            ~horizon:60.0
        in
        Alcotest.(check bool) "10 events cannot reach t=60" true stats.truncated;
        Runner.rep ~flagged:stats.truncated [| stats.time_avg_n |])
  in
  Alcotest.(check int) "truncated -> partial" 2 s.partial

let test_sigint_flushes_partial_results () =
  (* The first replication SIGINTs its own process; the runner's handler
     stops further chunks from being claimed, finishes the current one,
     and reports interrupted instead of dying. *)
  let res, timing =
    Runner.run_map ~jobs:1 ~chunk:2 ~handle_sigint:true ~master_seed:1 ~replications:64
      (fun ~rng:_ ~index ->
        if index = 0 then Unix.kill (Unix.getpid ()) Sys.sigint;
        (* give the pending signal a safe point to land on *)
        ignore (Sys.opaque_identity (Array.make 1024 index));
        index)
  in
  Alcotest.(check bool) "flagged as interrupted" true timing.interrupted;
  Alcotest.(check int) "chunk 0 completed" 0 (Option.get res.(0));
  Alcotest.(check bool) "tail chunks never ran" true (res.(63) = None);
  let completed = Array.fold_left (fun n s -> if s = None then n else n + 1) 0 res in
  Alcotest.(check bool) "stopped early" true (completed < 64)

(* ---- wall-clock watchdog (--rep-timeout) ---- *)

(* Replications on [slow] indices sleep well past the watchdog; the rest
   return instantly.  The margin (300ms vs a 50ms timeout vs ~0ms fast
   reps) is wide enough that the verdict is scheduling-independent. *)
let watchdog_thunk slow ~rng:_ ~index =
  if List.mem index slow then Unix.sleepf 0.3;
  float_of_int (index * index)

let test_rep_timeout_discards_late_value () =
  let res, timing =
    Runner.run_map ~jobs:1 ~on_error:Runner.Skip ~rep_timeout_s:0.05 ~master_seed:1
      ~replications:6 (watchdog_thunk [ 2 ])
  in
  Alcotest.(check bool) "late value discarded" true (res.(2) = None);
  Alcotest.(check int) "one failure" 1 (List.length timing.failures);
  (match timing.failures with
  | [ f ] ->
      Alcotest.(check int) "failure names the slow rep" 2 f.index;
      Alcotest.(check bool) "failure is Rep_timeout" true (f.error = Runner.Rep_timeout)
  | _ -> Alcotest.fail "expected exactly one failure");
  Alcotest.(check (float 0.0)) "fast reps kept" 25.0 (Option.get res.(5))

let test_rep_timeout_survivors_identical_across_jobs () =
  let run jobs =
    Runner.run_summary ~jobs ~chunk:2 ~on_error:Runner.Skip ~rep_timeout_s:0.05
      ~metrics:[ "v" ] ~master_seed:9 ~replications:8
      (fun ~rng ~index ->
        if index = 3 then Unix.sleepf 0.3;
        (* survivors must keep their deterministic streams *)
        Runner.rep [| Rng.float rng |])
  in
  let a = run 1 and b = run 2 and c = run 4 in
  let w s = snd (List.hd s.Runner.stats) in
  check_welford_identical "jobs 1 vs 2" (w a) (w b);
  check_welford_identical "jobs 1 vs 4" (w a) (w c);
  Alcotest.(check int) "survivor count" 7 (Welford.count (w a));
  List.iter
    (fun (s : Runner.summary) ->
      Alcotest.(check int) "timed-out rep recorded" 1 (List.length s.timing.failures))
    [ a; b; c ]

let test_rep_timeout_retry_gets_fresh_watchdog () =
  (* A rep that only sleeps on its first attempt: the retry runs under a
     fresh watchdog and succeeds, so nothing is recorded as failed. *)
  let attempts = Atomic.make 0 in
  let res, timing =
    Runner.run_map ~jobs:1 ~on_error:(Runner.Retry 2) ~rep_timeout_s:0.05 ~master_seed:4
      ~replications:3
      (fun ~rng:_ ~index ->
        if index = 1 && Atomic.fetch_and_add attempts 1 = 0 then Unix.sleepf 0.3;
        index * 10)
  in
  Alcotest.(check int) "no failures after retry" 0 (List.length timing.failures);
  Alcotest.(check (float 0.0)) "retried rep kept" 10.0 (float_of_int (Option.get res.(1)));
  Alcotest.(check bool) "first attempt really timed out" true (Atomic.get attempts >= 2)

let test_rep_timeout_cooperative_poll () =
  (* A thunk that polls [deadline_exceeded] bails out early instead of
     wasting the full sleep. *)
  let res, timing =
    Runner.run_map ~jobs:1 ~on_error:Runner.Skip ~rep_timeout_s:0.05 ~master_seed:1
      ~replications:2
      (fun ~rng:_ ~index ->
        if index = 0 then
          while true do
            if Runner.deadline_exceeded () then raise Runner.Rep_timeout;
            ignore (Sys.opaque_identity index)
          done;
        index)
  in
  Alcotest.(check bool) "poller recorded as timeout" true (res.(0) = None);
  (match timing.failures with
  | [ f ] -> Alcotest.(check bool) "Rep_timeout" true (f.error = Runner.Rep_timeout)
  | _ -> Alcotest.fail "expected one failure");
  Alcotest.(check bool) "no watchdog -> deadline never fires" true
    (not (Runner.deadline_exceeded ()))

(* The engine loop polls the watchdog itself, so a replication of any
   jump backend stops within a poll period of the deadline instead of
   running to its horizon and having its value discarded afterwards.
   Each thunk sleeps past its deadline first, so the first poll fires;
   the probe records how far the simulation clock got. *)
let test_rep_timeout_stops_every_backend () =
  let horizon = 3000.0 in
  let syndrome = Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:0.3 ~mu:2.0 ~gamma:infinity in
  let gift =
    Sim_coded.of_gift
      { Stability.Coded.q = 16; k = 8; us = 0.0; mu = 1.0; gamma = infinity; lambda0 = 0.95;
        lambda1 = 0.05 }
  in
  List.iter
    (fun (name, run) ->
      let last = ref 0.0 in
      let probe =
        P2p_obs.Probe.make ~interval:1.0 ~on_sample:(fun s -> last := s.P2p_obs.Probe.time) ()
      in
      let res, timing =
        Runner.run_map ~jobs:1 ~on_error:Runner.Skip ~rep_timeout_s:0.001 ~master_seed:1
          ~replications:1
          (fun ~rng ~index:_ ->
            Unix.sleepf 0.01;
            run ~probe ~rng)
      in
      Alcotest.(check bool) (name ^ ": no value") true (res.(0) = None);
      (match timing.failures with
      | [ f ] -> Alcotest.(check bool) (name ^ ": Rep_timeout") true (f.error = Runner.Rep_timeout)
      | _ -> Alcotest.failf "%s: expected one failure" name);
      Alcotest.(check bool)
        (Printf.sprintf "%s: stopped at t = %g, well before the horizon" name !last)
        true (!last < horizon /. 2.0))
    [
      ( "markov",
        fun ~probe ~rng ->
          ignore (Sim_markov.run ~probe ~rng (Sim_markov.default_config syndrome) ~horizon) );
      ( "agent",
        fun ~probe ~rng ->
          ignore (Sim_agent.run ~probe ~rng (Sim_agent.default_config syndrome) ~horizon) );
      ("coded", fun ~probe ~rng -> ignore (Sim_coded.run ~probe ~rng gift ~horizon));
    ]

let test_rep_timeout_validation () =
  List.iter
    (fun bad ->
      try
        ignore
          (Runner.run_map ~rep_timeout_s:bad ~master_seed:1 ~replications:1
             (fun ~rng:_ ~index -> index));
        Alcotest.failf "rep_timeout_s %g accepted" bad
      with Invalid_argument _ -> ())
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let () =
  Alcotest.run "runner"
    [
      ( "determinism",
        [
          Alcotest.test_case "identical across jobs 1/2/4" `Quick test_deterministic_across_jobs;
          Alcotest.test_case "identical back-to-back" `Quick test_deterministic_back_to_back;
          Alcotest.test_case "run_map indexed by replication" `Quick
            test_run_map_indexed_by_replication;
          Alcotest.test_case "matches sequential simulator" `Quick
            test_matches_sequential_simulator;
        ] );
      ( "engine",
        [
          Alcotest.test_case "zero replications" `Quick test_zero_replications;
          Alcotest.test_case "more jobs than replications" `Quick
            test_more_jobs_than_replications;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "utilisation sane" `Quick test_utilisation_sane;
        ] );
      ( "failure isolation",
        [
          Alcotest.test_case "skip names failure, keeps survivors" `Quick
            test_skip_names_failure_and_keeps_survivors;
          Alcotest.test_case "skip summary bit-identical across jobs" `Quick
            test_skip_summary_bit_identical_across_jobs;
          Alcotest.test_case "retry uses fresh deterministic stream" `Quick
            test_retry_uses_fresh_deterministic_stream;
          Alcotest.test_case "retry exhaustion records failure" `Quick
            test_retry_exhaustion_records_failure;
          Alcotest.test_case "abort propagates with backtrace" `Quick
            test_abort_still_propagates_with_backtrace;
          Alcotest.test_case "flagged feeds partial" `Quick test_flagged_feeds_partial;
          Alcotest.test_case "simulator truncation flag propagates" `Quick
            test_simulator_truncation_flag_propagates;
          Alcotest.test_case "SIGINT flushes partial results" `Quick
            test_sigint_flushes_partial_results;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "late value discarded" `Quick test_rep_timeout_discards_late_value;
          Alcotest.test_case "survivors identical across jobs" `Quick
            test_rep_timeout_survivors_identical_across_jobs;
          Alcotest.test_case "retry gets fresh watchdog" `Quick
            test_rep_timeout_retry_gets_fresh_watchdog;
          Alcotest.test_case "cooperative poll" `Quick test_rep_timeout_cooperative_poll;
          Alcotest.test_case "engine stops every jump backend" `Quick
            test_rep_timeout_stops_every_backend;
          Alcotest.test_case "validation" `Quick test_rep_timeout_validation;
        ] );
      ( "cross-implementation",
        [
          Alcotest.test_case "markov vs agent, 32 replications" `Slow
            test_markov_vs_agent_at_scale;
        ] );
    ]
