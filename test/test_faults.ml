(* Fault-injection layer: spec validation, deterministic fault schedules,
   the no-fault bit-identity guarantee, and the physical sanity of each
   fault type (outage duty cycle, churn accounting, transfer loss). *)

module Rng = P2p_prng.Rng
open P2p_core

let stable_params = Scenario.flash_crowd ~k:3 ~lambda:0.5 ~us:0.8 ~mu:1.0 ~gamma:2.0

(* ---- spec construction ---- *)

let test_make_validation () =
  let check_invalid name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument msg ->
         (* satellite contract: the offending value is echoed *)
         String.length msg > 0)
  in
  check_invalid "zero mean_up" (fun () -> Faults.make ~outage:(0.0, 1.0) ());
  check_invalid "negative mean_down" (fun () -> Faults.make ~outage:(1.0, -2.0) ());
  check_invalid "nan mean_up" (fun () -> Faults.make ~outage:(nan, 1.0) ());
  check_invalid "infinite mean_down" (fun () -> Faults.make ~outage:(1.0, infinity) ());
  check_invalid "negative abort rate" (fun () -> Faults.make ~abort_rate:(-0.1) ());
  check_invalid "loss_prob > 1" (fun () -> Faults.make ~loss_prob:1.5 ());
  check_invalid "loss_prob < 0" (fun () -> Faults.make ~loss_prob:(-0.01) ());
  (* the message names the offending value *)
  (try
     ignore (Faults.make ~loss_prob:7.5 ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     Alcotest.(check bool)
       (Printf.sprintf "message %S echoes 7.5" msg)
       true
       (let rec contains i =
          i + 3 <= String.length msg && (String.sub msg i 3 = "7.5" || contains (i + 1))
        in
        contains 0))

let test_is_none_and_uptime () =
  Alcotest.(check bool) "none is none" true (Faults.is_none Faults.none);
  Alcotest.(check bool) "all-zero make is none" true (Faults.is_none (Faults.make ()));
  Alcotest.(check bool) "outage is not none" false
    (Faults.is_none (Faults.make ~outage:(1.0, 1.0) ()));
  Alcotest.(check bool) "churn is not none" false
    (Faults.is_none (Faults.make ~abort_rate:0.1 ()));
  Alcotest.(check (float 1e-12)) "uptime of none" 1.0 (Faults.uptime_fraction Faults.none);
  let f = Faults.make ~outage:(30.0, 10.0) () in
  Alcotest.(check (float 1e-12)) "duty cycle 30/(30+10)" 0.75 (Faults.uptime_fraction f);
  Alcotest.(check (float 1e-12)) "effective U_s" 0.6 (Faults.effective_us f ~us:0.8)

let test_effective_classifier () =
  (* flash_crowd at us=0.8 is stable; scaling U_s toward 0 must cross
     into the transient region, and the classifier must agree with
     classify on hand-scaled parameters. *)
  Alcotest.(check bool) "full uptime = plain classify" true
    (Stability.classify_effective stable_params ~uptime_fraction:1.0
    = Stability.classify stable_params);
  let scaled = Stability.effective_params stable_params ~uptime_fraction:0.25 in
  Alcotest.(check (float 1e-12)) "us scaled" (0.8 *. 0.25) scaled.us;
  Alcotest.(check bool) "agrees with classify of scaled params" true
    (Stability.classify_effective stable_params ~uptime_fraction:0.25
    = Stability.classify scaled);
  Alcotest.(check bool) "invalid uptime rejected" true
    (try
       ignore (Stability.effective_params stable_params ~uptime_fraction:1.5);
       false
     with Invalid_argument _ -> true)

(* ---- deterministic fault schedules ---- *)

let faulty = Faults.make ~outage:(40.0, 10.0) ~abort_rate:0.02 ~loss_prob:0.1 ()

let markov_stats seed =
  let config = { (Sim_markov.default_config stable_params) with faults = faulty } in
  fst (Sim_markov.run_seeded ~seed config ~horizon:300.0)

let agent_stats seed =
  let config = { (Sim_agent.default_config stable_params) with faults = faulty } in
  fst (Sim_agent.run_seeded ~seed config ~horizon:300.0)

let test_fault_schedule_deterministic () =
  let a = markov_stats 2024 and b = markov_stats 2024 in
  Alcotest.(check int) "events" a.events b.events;
  Alcotest.(check int) "transfers" a.transfers b.transfers;
  Alcotest.(check int) "aborted" a.aborted_peers b.aborted_peers;
  Alcotest.(check int) "lost" a.lost_transfers b.lost_transfers;
  Alcotest.(check bool) "outage_time bit-identical" true
    (Float.equal a.outage_time b.outage_time);
  Alcotest.(check bool) "time_avg_n bit-identical" true
    (Float.equal a.time_avg_n b.time_avg_n);
  let c = markov_stats 2025 in
  Alcotest.(check bool) "different seed, different schedule" true
    (not (Float.equal a.outage_time c.outage_time));
  let d = agent_stats 2024 and e = agent_stats 2024 in
  Alcotest.(check int) "agent aborted" d.aborted_peers e.aborted_peers;
  Alcotest.(check int) "agent lost" d.lost_transfers e.lost_transfers;
  Alcotest.(check bool) "agent outage_time bit-identical" true
    (Float.equal d.outage_time e.outage_time)

(* ---- the no-fault bit-identity guarantee ----

   Golden values from the simulators with faults = none (same params,
   seed 2024, horizon 500).  If these move, every published replication
   result silently changes.  Re-pinned when the hot-path samplers
   changed the RNG draw order (fast piece selection, alias-method
   arrivals); the chi-square suites in test_policy and test_dist check
   the new draw path agrees in distribution with the spec.  The markov
   golden was re-pinned again when Sim_markov stopped racing same-type
   contacts (DESIGN §18): the draw stream changed, the law did not —
   test_conformance checks the first-jump law and the holding-time mean
   against Rate.transitions, and test_state chi-squares the pair
   sampler against uniform over distinct-type pairs. *)

let test_golden_no_fault_markov () =
  let stats, _ =
    Sim_markov.run_seeded ~seed:2024 (Sim_markov.default_config stable_params) ~horizon:500.0
  in
  Alcotest.(check int) "events" 1540 stats.events;
  Alcotest.(check int) "transfers" 718 stats.transfers;
  Alcotest.(check int) "final n" 7 stats.final_n;
  Alcotest.(check bool)
    (Printf.sprintf "time-avg N %.17g unchanged" stats.time_avg_n)
    true
    (Float.equal stats.time_avg_n 3.5033938892063903);
  Alcotest.(check int) "no outage time" 0 (compare stats.outage_time 0.0);
  Alcotest.(check int) "no aborts" 0 stats.aborted_peers;
  Alcotest.(check int) "no losses" 0 stats.lost_transfers

let test_golden_no_fault_agent () =
  let stats, _ =
    Sim_agent.run_seeded ~seed:2024 (Sim_agent.default_config stable_params) ~horizon:500.0
  in
  Alcotest.(check int) "events" 2604 stats.events;
  Alcotest.(check int) "transfers" 721 stats.transfers;
  Alcotest.(check int) "final n" 2 stats.final_n;
  Alcotest.(check bool)
    (Printf.sprintf "time-avg N %.17g unchanged" stats.time_avg_n)
    true
    (Float.equal stats.time_avg_n 3.588285721585124);
  Alcotest.(check bool)
    (Printf.sprintf "mean sojourn %.17g unchanged" stats.mean_sojourn)
    true
    (Float.equal stats.mean_sojourn 7.445331774318185)

(* The per-peer backend with every knob that draws on: the η = 2 retry
   speedup, an Erlang-3 seed dwell, and all three fault families.  Any
   change to the draw stream of a single-class run moves these. *)
let test_golden_faulty_agent () =
  let config =
    { (Sim_agent.default_config stable_params) with
      eta = 2.0;
      dwell = Sim_agent.Erlang_dwell 3;
      faults = Faults.make ~outage:(20.0, 5.0) ~abort_rate:0.02 ~loss_prob:0.05 ();
    }
  in
  let s, _ = Sim_agent.run_seeded ~seed:2025 config ~horizon:500.0 in
  Alcotest.(check int) "events" 3992 s.events;
  Alcotest.(check int) "transfers" 693 s.transfers;
  Alcotest.(check int) "silent contacts" 2753 s.silent_contacts;
  Alcotest.(check int) "final n" 1 s.final_n;
  Alcotest.(check int) "aborted" 43 s.aborted_peers;
  Alcotest.(check int) "lost" 31 s.lost_transfers;
  Alcotest.(check int64) "time-avg N bits" 4616201855313941559L
    (Int64.bits_of_float s.time_avg_n);
  Alcotest.(check int64) "mean sojourn bits" 4620410058869607659L
    (Int64.bits_of_float s.mean_sojourn)

(* ---- physical sanity of each fault type ---- *)

let test_outage_time_tracks_duty_cycle () =
  (* mean_up = mean_down: the seed should be down about half the time.
     Averaged over 8 seeds and a long horizon the tolerance is loose but
     safely away from 0 and 1. *)
  let horizon = 2000.0 in
  let config =
    { (Sim_markov.default_config stable_params) with
      faults = Faults.make ~outage:(25.0, 25.0) ()
    }
  in
  let total = ref 0.0 in
  for seed = 1 to 8 do
    let stats, _ = Sim_markov.run_seeded ~seed config ~horizon in
    Alcotest.(check bool) "outage within [0, horizon]" true
      (stats.outage_time >= 0.0 && stats.outage_time <= horizon);
    total := !total +. stats.outage_time
  done;
  let fraction = !total /. (8.0 *. horizon) in
  Alcotest.(check bool)
    (Printf.sprintf "down fraction %.3f near 0.5" fraction)
    true
    (fraction > 0.35 && fraction < 0.65)

let test_churn_accounting () =
  let config =
    { (Sim_markov.default_config stable_params) with faults = Faults.make ~abort_rate:0.5 () }
  in
  let stats, _ = Sim_markov.run_seeded ~seed:11 config ~horizon:400.0 in
  Alcotest.(check bool) "aborts happen at rate 0.5/peer" true (stats.aborted_peers > 0);
  Alcotest.(check bool) "aborts are departures" true (stats.aborted_peers <= stats.departures);
  (* every peer is accounted for: still present + departed = arrived + initial *)
  let initial = List.fold_left (fun acc (_, n) -> acc + n) 0 config.initial in
  Alcotest.(check int) "conservation of peers"
    (initial + stats.arrivals)
    (stats.final_n + stats.departures);
  let agent_config =
    { (Sim_agent.default_config stable_params) with faults = Faults.make ~abort_rate:0.5 () }
  in
  let astats, _ = Sim_agent.run_seeded ~seed:11 agent_config ~horizon:400.0 in
  Alcotest.(check bool) "agent aborts happen" true (astats.aborted_peers > 0);
  Alcotest.(check bool) "agent aborts are departures" true
    (astats.aborted_peers <= astats.departures)

let test_total_loss_stops_all_transfers () =
  let check_sim name transfers lost =
    Alcotest.(check int) (name ^ ": no transfer completes at loss_prob 1") 0 transfers;
    Alcotest.(check bool) (name ^ ": losses were drawn") true (lost > 0)
  in
  let config =
    { (Sim_markov.default_config stable_params) with faults = Faults.make ~loss_prob:1.0 () }
  in
  let stats, _ = Sim_markov.run_seeded ~seed:5 config ~horizon:200.0 in
  check_sim "markov" stats.transfers stats.lost_transfers;
  let agent_config =
    { (Sim_agent.default_config stable_params) with faults = Faults.make ~loss_prob:1.0 () }
  in
  let astats, _ = Sim_agent.run_seeded ~seed:5 agent_config ~horizon:200.0 in
  check_sim "agent" astats.transfers astats.lost_transfers

let test_outage_starves_seed_uploads () =
  (* us very large but the seed almost always down: the swarm should look
     close to the us = 0 swarm, not the us = 8 one.  Witness: a one-club
     initial state cannot be rescued, so the population keeps growing. *)
  let p = Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:8.0 ~mu:1.0 ~gamma:infinity in
  let one_club = P2p_pieceset.Pieceset.(remove 0 (full ~k:3)) in
  let run faults =
    let config =
      { (Sim_markov.default_config p) with faults; initial = [ (one_club, 40) ] }
    in
    (fst (Sim_markov.run_seeded ~seed:9 config ~horizon:150.0)).final_n
  in
  let healthy = run Faults.none in
  let degraded = run (Faults.make ~outage:(0.5, 50.0) ()) in
  Alcotest.(check bool)
    (Printf.sprintf "population under near-total outage (%d) dwarfs healthy (%d)" degraded
       healthy)
    true
    (degraded > 2 * healthy)

let () =
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "is_none and uptime fraction" `Quick test_is_none_and_uptime;
          Alcotest.test_case "effective-U_s classifier" `Quick test_effective_classifier;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fault schedule is a function of the seed" `Quick
            test_fault_schedule_deterministic;
          Alcotest.test_case "golden no-fault markov run" `Quick test_golden_no_fault_markov;
          Alcotest.test_case "golden no-fault agent run" `Quick test_golden_no_fault_agent;
          Alcotest.test_case "golden faulty agent run" `Quick test_golden_faulty_agent;
        ] );
      ( "physics",
        [
          Alcotest.test_case "outage time tracks the duty cycle" `Quick
            test_outage_time_tracks_duty_cycle;
          Alcotest.test_case "churn accounting" `Quick test_churn_accounting;
          Alcotest.test_case "loss_prob 1 stops all transfers" `Quick
            test_total_loss_stops_all_transfers;
          Alcotest.test_case "outage starves seed uploads" `Slow
            test_outage_starves_seed_uploads;
        ] );
    ]
