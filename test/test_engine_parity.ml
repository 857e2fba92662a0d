(* Engine-parity contracts for the coded simulator and the per-peer
   simulator on a sparse overlay.

   These paths gained fault injection, probes, and truncation when they
   moved onto the shared Engine core.  This suite pins the guarantees
   that move demanded:

   - no-fault goldens: with Faults.none and no probe, each run is
     bit-identical to a pinned baseline;
   - probes observe, never perturb: a busy probe leaves every statistic
     bit-identical;
   - probe series are a function of the replication seed alone, so the
     runner's [--jobs] count cannot move them;
   - the [truncated] flag reports the max_events budget honestly;
   - each fault family does physical work (outage time accrues, churn
     conserves peers, total loss stops every delivery). *)

module Rng = P2p_prng.Rng
module Probe = P2p_obs.Probe
module Series = P2p_obs.Series
module Profile = P2p_obs.Profile
module Recorder = P2p_obs.Recorder
module Runner = P2p_runner.Runner
open P2p_core

(* ---- the two pinned workloads ---- *)

let coded_gift =
  { Stability.Coded.q = 4; k = 4; us = 0.8; mu = 1.0; gamma = 2.0;
    lambda0 = 0.5; lambda1 = 0.5 }

let coded_config () = Sim_coded.of_gift coded_gift
let coded_run ?probe ?max_events ~seed () =
  Sim_coded.run_seeded ?probe ?max_events ~seed (coded_config ()) ~horizon:300.0

let network_params = Scenario.flash_crowd ~k:3 ~lambda:0.9 ~us:0.8 ~mu:1.0 ~gamma:2.0
let network_config () = { (Sim_agent.default_config network_params) with degree = Some 4 }
let network_run ?probe ?max_events ~seed () =
  Sim_agent.run_seeded ?probe ?max_events ~seed (network_config ()) ~horizon:500.0

(* ---- no-fault golden bit-identity ----

   Golden values (same seed, same workload, faults = none).  If these
   move, every published coded or overlay replication result silently
   changes. *)

let test_golden_no_fault_coded () =
  let s = coded_run ~seed:81 () in
  Alcotest.(check int) "events" 2713 s.events;
  Alcotest.(check int) "arrivals" 322 s.arrivals;
  Alcotest.(check int) "useful" 1134 s.useful_transfers;
  Alcotest.(check int) "useless" 568 s.useless_transfers;
  Alcotest.(check int) "completions" 318 s.completions;
  Alcotest.(check int) "departures" 316 s.departures;
  Alcotest.(check int) "final n" 6 s.final_n;
  Alcotest.(check int) "max n" 16 s.max_n;
  Alcotest.(check (array int)) "dim histogram" [| 0; 0; 1; 3; 2 |] s.dim_histogram;
  Alcotest.(check bool)
    (Printf.sprintf "time-avg N %.17g unchanged" s.time_avg_n)
    true
    (Float.equal s.time_avg_n 6.2248766352917571);
  Alcotest.(check bool)
    (Printf.sprintf "near-complete fraction %.17g unchanged" s.near_complete_fraction)
    true
    (Float.equal s.near_complete_fraction 0.32725029908914943);
  Alcotest.(check bool) "not truncated" false s.truncated;
  Alcotest.(check int) "no outage time" 0 (compare s.outage_time 0.0);
  Alcotest.(check int) "no aborts" 0 s.aborted_peers;
  Alcotest.(check int) "no losses" 0 s.lost_transfers

(* Wider fields, both with K = 8: GF(16) rows fit one packed word and
   GF(256) rows span two, so each word layout of the subspace tracker
   has a pinned end-to-end run.  Recorded before the rows were packed;
   re-pinned when the coded swarm moved onto the per-peer driver, which
   moved its draw stream (the coded first-jump laws in test_conformance
   pin the law). *)
let wide_gift ~q = { coded_gift with q; k = 8; us = 1.0 }

let check_coded_golden ?(seed = 81) gift ~events ~arrivals ~useful ~useless ~completions ~final_n ~max_n
    ~dims ~time_avg_n ~near_complete =
  let s = Sim_coded.run_seeded ~seed (Sim_coded.of_gift gift) ~horizon:200.0 in
  Alcotest.(check int) "events" events s.events;
  Alcotest.(check int) "arrivals" arrivals s.arrivals;
  Alcotest.(check int) "useful" useful s.useful_transfers;
  Alcotest.(check int) "useless" useless s.useless_transfers;
  Alcotest.(check int) "completions" completions s.completions;
  Alcotest.(check int) "final n" final_n s.final_n;
  Alcotest.(check int) "max n" max_n s.max_n;
  Alcotest.(check (array int)) "dim histogram" dims s.dim_histogram;
  Alcotest.(check bool)
    (Printf.sprintf "time-avg N %.17g unchanged" s.time_avg_n)
    true
    (Float.equal s.time_avg_n time_avg_n);
  Alcotest.(check bool)
    (Printf.sprintf "near-complete fraction %.17g unchanged" s.near_complete_fraction)
    true
    (Float.equal s.near_complete_fraction near_complete)

let test_golden_no_fault_coded_gf16 () =
  check_coded_golden (wide_gift ~q:16) ~events:2277 ~arrivals:199 ~useful:1453 ~useless:228
    ~completions:188 ~final_n:11 ~max_n:17 ~dims:[| 0; 0; 1; 1; 3; 4; 0; 2; 0 |]
    ~time_avg_n:8.3825298214686441 ~near_complete:0.112852567204496

let test_golden_no_fault_coded_gf256 () =
  check_coded_golden (wide_gift ~q:256) ~events:2199 ~arrivals:198 ~useful:1433 ~useless:207
    ~completions:186 ~final_n:13 ~max_n:14 ~dims:[| 1; 2; 1; 2; 0; 1; 2; 3; 1 |]
    ~time_avg_n:8.3550220091683105 ~near_complete:0.12379378025796681

(* Theorem 15's transient regime: no arrival is gifted (f = 0 < q/((q−1)K))
   and U_s = 0.25 cannot drain λ = 2, so peers pile up in one shared
   hyperplane V⁻ and most uploads pass between two peers holding that
   same subspace.  About half the seeds form the club by t = 200; seed
   83 is the first from 81 on that does. *)
let test_golden_no_fault_coded_club () =
  check_coded_golden ~seed:83
    { coded_gift with q = 16; k = 8; us = 0.25; gamma = infinity; lambda0 = 2.0; lambda1 = 0.0 }
    ~events:38107 ~arrivals:430 ~useful:2980 ~useless:34220 ~completions:44 ~final_n:386
    ~max_n:386 ~dims:[| 4; 2; 1; 3; 3; 2; 4; 367; 0 |] ~time_avg_n:188.71258703041977
    ~near_complete:0.76961218178588253

let test_golden_no_fault_network_sparse () =
  let config = { (network_config ()) with census = Sim_agent.Neighbourhood } in
  let s, _ = Sim_agent.run_seeded ~seed:7 config ~horizon:400.0 in
  Alcotest.(check int) "events" 3886 s.events;
  Alcotest.(check int) "arrivals" 376 s.arrivals;
  Alcotest.(check int) "transfers" 1124 s.transfers;
  Alcotest.(check int) "departures" 372 s.departures;
  Alcotest.(check int) "silent contacts" 2014 s.silent_contacts;
  Alcotest.(check int) "final n" 4 s.final_n;
  Alcotest.(check int) "max n" 20 s.max_n;
  Alcotest.(check bool)
    (Printf.sprintf "time-avg N %.17g unchanged" s.time_avg_n)
    true
    (Float.equal s.time_avg_n 7.3783098273809102);
  Alcotest.(check bool)
    (Printf.sprintf "mean degree %.17g unchanged" s.mean_degree_time_avg)
    true
    (Float.equal s.mean_degree_time_avg 3.5348963382235135)

(* ---- probes observe, never perturb ---- *)

(* Listens to everything: a ring spilling to a JSONL log, the sample
   grid and the profiler.  [finish] closes the log and returns how many
   rows it holds and how many events the ring saw. *)
let busy_probe ~k =
  let series = Series.create ~k ~interval:7.0 in
  let path = Filename.temp_file "p2p_parity" ".jsonl" in
  let recorder = Recorder.create ~capacity:64 ~log:path () in
  let probe =
    Probe.make ~interval:7.0 ~recorder ~on_sample:(Series.record series)
      ~profile:(Profile.create ()) ()
  in
  let finish () =
    Recorder.close recorder;
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    (* one line per row after the header, each ending in a newline *)
    (List.length (String.split_on_char '\n' text) - 2, Recorder.recorded recorder)
  in
  (probe, finish)

let check_saw_traffic finish =
  let traced, recorded = finish () in
  Alcotest.(check bool) "the probe actually saw traffic" true (traced > 0);
  Alcotest.(check int) "the log holds every event the ring saw" recorded traced

let faulty = Faults.make ~outage:(20.0, 5.0) ~abort_rate:0.02 ~loss_prob:0.05 ()

let test_coded_probe_bit_identity () =
  let config = { (coded_config ()) with faults = faulty } in
  let run ?probe () = Sim_coded.run_seeded ?probe ~seed:77 config ~horizon:250.0 in
  let bare = run () in
  let probe, finish = busy_probe ~k:4 in
  let probed = run ~probe () in
  Alcotest.(check int) "events" bare.Sim_coded.events probed.Sim_coded.events;
  Alcotest.(check int) "arrivals" bare.Sim_coded.arrivals probed.Sim_coded.arrivals;
  Alcotest.(check int) "useful" bare.Sim_coded.useful_transfers probed.Sim_coded.useful_transfers;
  Alcotest.(check int) "useless" bare.Sim_coded.useless_transfers
    probed.Sim_coded.useless_transfers;
  Alcotest.(check int) "aborted" bare.Sim_coded.aborted_peers probed.Sim_coded.aborted_peers;
  Alcotest.(check int) "lost" bare.Sim_coded.lost_transfers probed.Sim_coded.lost_transfers;
  Alcotest.(check bool) "time_avg_n bit-identical" true
    (Int64.bits_of_float bare.Sim_coded.time_avg_n
    = Int64.bits_of_float probed.Sim_coded.time_avg_n);
  Alcotest.(check bool) "outage_time bit-identical" true
    (Int64.bits_of_float bare.Sim_coded.outage_time
    = Int64.bits_of_float probed.Sim_coded.outage_time);
  Alcotest.(check bool) "near_complete bit-identical" true
    (Int64.bits_of_float bare.Sim_coded.near_complete_fraction
    = Int64.bits_of_float probed.Sim_coded.near_complete_fraction);
  Alcotest.(check bool) "sample grid" true (bare.Sim_coded.samples = probed.Sim_coded.samples);
  check_saw_traffic finish

let test_network_probe_bit_identity () =
  let config = { (network_config ()) with faults = faulty } in
  let run ?probe () = Sim_agent.run_seeded ?probe ~seed:77 config ~horizon:250.0 in
  let bare, _ = run () in
  let probe, finish = busy_probe ~k:3 in
  let probed, _ = run ~probe () in
  Alcotest.(check int) "events" bare.Peers.events probed.Peers.events;
  Alcotest.(check int) "arrivals" bare.Peers.arrivals probed.Peers.arrivals;
  Alcotest.(check int) "transfers" bare.Peers.transfers probed.Peers.transfers;
  Alcotest.(check int) "silent" bare.Peers.silent_contacts
    probed.Peers.silent_contacts;
  Alcotest.(check int) "aborted" bare.Peers.aborted_peers probed.Peers.aborted_peers;
  Alcotest.(check int) "lost" bare.Peers.lost_transfers probed.Peers.lost_transfers;
  Alcotest.(check bool) "time_avg_n bit-identical" true
    (Int64.bits_of_float bare.Peers.time_avg_n
    = Int64.bits_of_float probed.Peers.time_avg_n);
  Alcotest.(check bool) "outage_time bit-identical" true
    (Int64.bits_of_float bare.Peers.outage_time
    = Int64.bits_of_float probed.Peers.outage_time);
  Alcotest.(check bool) "sample grid" true
    (bare.Peers.samples = probed.Peers.samples);
  Alcotest.(check bool) "club samples" true
    (bare.Peers.club_samples = probed.Peers.club_samples);
  check_saw_traffic finish

(* ---- probe series are jobs-independent ---- *)

let coded_probe_sweep ~jobs =
  let config = { (coded_config ()) with faults = faulty } in
  let results, _ =
    Runner.run_map ~jobs ~chunk:2 ~master_seed:424242 ~replications:6 (fun ~rng ~index:_ ->
        let series = Series.create ~k:4 ~interval:4.0 in
        let probe = Probe.make ~interval:4.0 ~on_sample:(Series.record series) () in
        let stats = Sim_coded.run ~probe ~rng config ~horizon:100.0 in
        Series.close series ~time:100.0;
        (stats.Sim_coded.events, Series.samples series, (Series.means series).n))
  in
  Array.map Option.get results

let network_probe_sweep ~jobs =
  let config = { (network_config ()) with faults = faulty } in
  let results, _ =
    Runner.run_map ~jobs ~chunk:2 ~master_seed:424242 ~replications:6 (fun ~rng ~index:_ ->
        let series = Series.create ~k:3 ~interval:4.0 in
        let probe = Probe.make ~interval:4.0 ~on_sample:(Series.record series) () in
        let stats, _ = Sim_agent.run ~probe ~rng config ~horizon:100.0 in
        Series.close series ~time:100.0;
        (stats.Peers.events, Series.samples series, (Series.means series).n))
  in
  Array.map Option.get results

let check_sweeps_equal name seq par =
  Alcotest.(check int) (name ^ " replication count") (Array.length seq) (Array.length par);
  Array.iteri
    (fun i (ev_s, samples_s, avg_s) ->
      let ev_p, samples_p, avg_p = par.(i) in
      Alcotest.(check int) (Printf.sprintf "%s rep %d events" name i) ev_s ev_p;
      Alcotest.(check bool)
        (Printf.sprintf "%s rep %d probe samples" name i)
        true (samples_s = samples_p);
      Alcotest.(check bool)
        (Printf.sprintf "%s rep %d avg_n bit-identical" name i)
        true
        (Int64.bits_of_float avg_s = Int64.bits_of_float avg_p))
    seq

let test_coded_probe_series_jobs_independent () =
  check_sweeps_equal "coded" (coded_probe_sweep ~jobs:1) (coded_probe_sweep ~jobs:4)

let test_network_probe_series_jobs_independent () =
  check_sweeps_equal "network" (network_probe_sweep ~jobs:1) (network_probe_sweep ~jobs:4)

(* ---- the truncated flag ---- *)

let test_truncated_flag_coded () =
  let full = coded_run ~seed:5 () in
  Alcotest.(check bool) "untruncated run says so" false full.truncated;
  let cut = coded_run ~seed:5 ~max_events:60 () in
  Alcotest.(check bool) "budget exhaustion flagged" true cut.truncated;
  Alcotest.(check int) "stopped at the budget" 60 cut.events;
  (* the frozen state is extended to the horizon, biasing time averages *)
  Alcotest.(check bool) "stats closed at the horizon" true (Float.equal cut.final_time 300.0);
  Alcotest.(check int) "population frozen mid-flight" 7 cut.final_n

let test_truncated_flag_network () =
  let full, _ = network_run ~seed:3 () in
  Alcotest.(check bool) "untruncated run says so" false full.truncated;
  let cut, _ = network_run ~seed:3 ~max_events:80 () in
  Alcotest.(check bool) "budget exhaustion flagged" true cut.truncated;
  Alcotest.(check int) "stopped at the budget" 80 cut.events;
  Alcotest.(check bool) "stats closed at the horizon" true (Float.equal cut.final_time 500.0)

(* ---- each fault family does physical work ---- *)

let test_coded_fault_efficacy () =
  let base = coded_config () in
  let outage =
    Sim_coded.run_seeded ~seed:9
      { base with faults = Faults.make ~outage:(20.0, 20.0) () }
      ~horizon:400.0
  in
  Alcotest.(check bool) "outage time accrues" true (outage.outage_time > 0.0);
  Alcotest.(check bool) "outage within horizon" true (outage.outage_time <= 400.0);
  let churn =
    Sim_coded.run_seeded ~seed:9
      { base with faults = Faults.make ~abort_rate:0.3 () }
      ~horizon:400.0
  in
  Alcotest.(check bool) "churn aborts peers" true (churn.aborted_peers > 0);
  Alcotest.(check bool) "aborts are departures" true (churn.aborted_peers <= churn.departures);
  Alcotest.(check int) "conservation of peers" (churn.arrivals - churn.departures) churn.final_n;
  let lossy =
    Sim_coded.run_seeded ~seed:9
      { base with faults = Faults.make ~loss_prob:1.0 () }
      ~horizon:200.0
  in
  Alcotest.(check int) "no delivery survives total loss" 0
    (lossy.useful_transfers + lossy.useless_transfers);
  Alcotest.(check bool) "losses were drawn" true (lossy.lost_transfers > 0);
  Alcotest.(check int) "nobody decodes" 0 lossy.completions

let test_network_fault_efficacy () =
  let base = network_config () in
  let outage, _ =
    Sim_agent.run_seeded ~seed:9
      { base with faults = Faults.make ~outage:(20.0, 20.0) () }
      ~horizon:400.0
  in
  Alcotest.(check bool) "outage time accrues" true (outage.outage_time > 0.0);
  Alcotest.(check bool) "outage within horizon" true (outage.outage_time <= 400.0);
  let churn, _ =
    Sim_agent.run_seeded ~seed:9
      { base with faults = Faults.make ~abort_rate:0.3 () }
      ~horizon:400.0
  in
  Alcotest.(check bool) "churn aborts peers" true (churn.aborted_peers > 0);
  Alcotest.(check bool) "aborts are departures" true (churn.aborted_peers <= churn.departures);
  Alcotest.(check int) "conservation of peers" (churn.arrivals - churn.departures) churn.final_n;
  let lossy, _ =
    Sim_agent.run_seeded ~seed:9
      { base with faults = Faults.make ~loss_prob:1.0 () }
      ~horizon:200.0
  in
  Alcotest.(check int) "no transfer survives total loss" 0 lossy.transfers;
  Alcotest.(check bool) "losses were drawn" true (lossy.lost_transfers > 0)

(* ---- fault schedules are deterministic per seed ---- *)

let test_fault_schedule_deterministic () =
  let config = { (coded_config ()) with faults = faulty } in
  let a = Sim_coded.run_seeded ~seed:2024 config ~horizon:300.0 in
  let b = Sim_coded.run_seeded ~seed:2024 config ~horizon:300.0 in
  Alcotest.(check int) "coded events" a.events b.events;
  Alcotest.(check int) "coded aborted" a.aborted_peers b.aborted_peers;
  Alcotest.(check int) "coded lost" a.lost_transfers b.lost_transfers;
  Alcotest.(check bool) "coded outage bit-identical" true
    (Float.equal a.outage_time b.outage_time);
  let nconfig = { (network_config ()) with faults = faulty } in
  let c, _ = Sim_agent.run_seeded ~seed:2024 nconfig ~horizon:300.0 in
  let d, _ = Sim_agent.run_seeded ~seed:2024 nconfig ~horizon:300.0 in
  Alcotest.(check int) "network events" c.events d.events;
  Alcotest.(check int) "network aborted" c.aborted_peers d.aborted_peers;
  Alcotest.(check int) "network lost" c.lost_transfers d.lost_transfers;
  Alcotest.(check bool) "network outage bit-identical" true
    (Float.equal c.outage_time d.outage_time)

let () =
  Alcotest.run "engine_parity"
    [
      ( "no-fault goldens",
        [
          Alcotest.test_case "coded golden" `Quick test_golden_no_fault_coded;
          Alcotest.test_case "coded golden GF(16), one word" `Quick
            test_golden_no_fault_coded_gf16;
          Alcotest.test_case "coded golden GF(256), two words" `Quick
            test_golden_no_fault_coded_gf256;
          Alcotest.test_case "coded golden GF(16), transient club" `Quick
            test_golden_no_fault_coded_club;
          Alcotest.test_case "network sparse golden" `Quick test_golden_no_fault_network_sparse;
        ] );
      ( "probe bit-identity",
        [
          Alcotest.test_case "coded probed == unprobed" `Quick test_coded_probe_bit_identity;
          Alcotest.test_case "network probed == unprobed" `Quick
            test_network_probe_bit_identity;
        ] );
      ( "jobs-independence",
        [
          Alcotest.test_case "coded probe series across jobs" `Quick
            test_coded_probe_series_jobs_independent;
          Alcotest.test_case "network probe series across jobs" `Quick
            test_network_probe_series_jobs_independent;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "coded truncated flag" `Quick test_truncated_flag_coded;
          Alcotest.test_case "network truncated flag" `Quick test_truncated_flag_network;
        ] );
      ( "fault efficacy",
        [
          Alcotest.test_case "coded faults act" `Quick test_coded_fault_efficacy;
          Alcotest.test_case "network faults act" `Quick test_network_fault_efficacy;
          Alcotest.test_case "schedules deterministic" `Quick test_fault_schedule_deterministic;
        ] );
    ]
