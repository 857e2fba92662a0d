(* Heterogeneous peer classes: the threshold heuristic and the per-peer
   backend running several classes. *)

open P2p_core
module PS = P2p_pieceset.Pieceset

let closef ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6g got %.6g" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let test_validation () =
  let reject name ?(initial = []) classes =
    let config = { (Sim_agent.class_config ~k:2 ~us:0.0 classes) with initial } in
    Alcotest.(check bool) name true
      (try Sim_agent.validate config; false with Invalid_argument _ -> true)
  in
  reject "no classes" [];
  reject "bad mu" [ { label = "x"; mu = 0.0; gamma = 1.0; arrivals = [ (PS.empty, 1.0) ] } ];
  reject "no arrivals" [ { label = "x"; mu = 1.0; gamma = 1.0; arrivals = [] } ];
  reject "negative rate" [ { label = "x"; mu = 1.0; gamma = 1.0; arrivals = [ (PS.empty, -1.0) ] } ];
  reject "lambda_F with gamma inf"
    [ { label = "x"; mu = 1.0; gamma = infinity; arrivals = [ (PS.full ~k:2, 1.0) ] } ];
  reject "initial seeds in a gamma-inf first class" ~initial:[ (PS.full ~k:2, 1) ]
    [
      { label = "x"; mu = 1.0; gamma = infinity; arrivals = [ (PS.empty, 1.0) ] };
      { label = "y"; mu = 1.0; gamma = 1.0; arrivals = [] };
    ];
  (* the same config passes once the first class dwells *)
  Sim_agent.validate
    { (Sim_agent.class_config ~k:2 ~us:0.0
         [
           { label = "y"; mu = 1.0; gamma = 1.0; arrivals = [] };
           { label = "x"; mu = 1.0; gamma = infinity; arrivals = [ (PS.empty, 1.0) ] };
         ])
      with
      initial = [ (PS.full ~k:2, 1) ];
    }

let test_single_class_reduces_to_theorem1 () =
  (* The heuristic must agree with Theorem 1 exactly when there is one
     class, across regimes and gift mixes. *)
  let cases =
    [
      Scenario.flash_crowd ~k:3 ~lambda:0.9 ~us:0.8 ~mu:1.0 ~gamma:2.0;
      Scenario.flash_crowd ~k:3 ~lambda:1.3 ~us:0.3 ~mu:1.0 ~gamma:infinity;
      Scenario.example3 ~lambda1:1.0 ~lambda2:1.0 ~lambda3:1.0 ~mu:1.0 ~gamma:1.5;
      Scenario.example2 ~lambda12:1.0 ~lambda34:0.4 ~mu:1.0;
      Params.make ~k:3 ~us:0.4 ~mu:1.0 ~gamma:2.0
        ~arrivals:[ (PS.empty, 1.0); (PS.singleton 0, 0.5) ];
    ]
  in
  List.iter
    (fun (p : Params.t) ->
      let classes = Params.classes p in
      Alcotest.(check string) "verdict agrees"
        (Stability.verdict_to_string (Stability.classify p))
        (Stability.verdict_to_string (Stability.classify_classes ~k:p.k ~us:p.us classes));
      for piece = 0 to p.k - 1 do
        closef "threshold agrees" (Stability.threshold p ~piece)
          (Stability.class_threshold ~k:p.k ~us:p.us classes ~piece)
      done)
    cases

let two_classes ~lam_fast ~lam_slow =
  [
    { Params.label = "fast"; mu = 3.0; gamma = 6.0; arrivals = [ (PS.empty, lam_fast) ] };
    { Params.label = "slow"; mu = 0.3; gamma = 0.6; arrivals = [ (PS.empty, lam_slow) ] };
  ]

let run_classes ?max_events ~seed ~k ~us classes ~horizon =
  fst (Sim_agent.run_seeded ?max_events ~seed (Sim_agent.class_config ~k ~us classes) ~horizon)

let run_two ?max_events ~seed classes ~horizon =
  run_classes ?max_events ~seed ~k:3 ~us:0.4 classes ~horizon

let test_mbar_mixes_classes () =
  (* both classes have rho = 1/2, so any mix gives m_bar = 1/2 *)
  closef "equal rho" 0.5
    (Stability.mean_seed_offspring (two_classes ~lam_fast:1.0 ~lam_slow:0.1) ~piece:0);
  (* asymmetric rho: the mix matters *)
  let asym frac =
    [
      { Params.label = "a"; mu = 1.0; gamma = 4.0; arrivals = [ (PS.empty, frac) ] };
      { Params.label = "b"; mu = 1.0; gamma = 1.25; arrivals = [ (PS.empty, 1.0 -. frac) ] };
    ]
  in
  closef "all a" 0.25 (Stability.mean_seed_offspring (asym 1.0) ~piece:0);
  closef "all b" 0.8 (Stability.mean_seed_offspring (asym 0.0) ~piece:0);
  closef "half" 0.525 (Stability.mean_seed_offspring (asym 0.5) ~piece:0)

let test_threshold_infinite_when_supercritical () =
  let classes =
    [ { Params.label = "sticky"; mu = 1.0; gamma = 0.5; arrivals = [ (PS.empty, 5.0) ] } ]
  in
  closef "m_bar = 2" 2.0 (Stability.mean_seed_offspring classes ~piece:0);
  Alcotest.(check bool) "infinite threshold" true
    (Stability.class_threshold ~k:2 ~us:0.05 classes ~piece:0 = infinity);
  Alcotest.(check string) "stable at any load" "positive-recurrent"
    (Stability.verdict_to_string (Stability.classify_classes ~k:2 ~us:0.05 classes))

(* Peers are conserved, and the per-class time averages — summed class
   residence times over the run — add up to the engine's time average. *)
let test_simulation_conservation () =
  let s = run_two ~seed:1 (two_classes ~lam_fast:0.3 ~lam_slow:0.3) ~horizon:1000.0 in
  Alcotest.(check int) "conservation" (s.arrivals - s.departures) s.final_n;
  Alcotest.(check int) "class count" 2 (Array.length s.class_mean_n);
  closef "sum of class means = time-avg N" s.time_avg_n
    (Array.fold_left ( +. ) 0.0 s.class_mean_n)

(* The event budget is reported, as by every other simulator. *)
let test_truncation_flag () =
  let classes = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  let s = run_two ~max_events:50 ~seed:7 classes ~horizon:300.0 in
  Alcotest.(check bool) "budget of 50 truncates" true s.truncated;
  Alcotest.(check int) "events = budget" 50 s.events;
  closef "class means still sum to time-avg N" s.time_avg_n
    (Array.fold_left ( +. ) 0.0 s.class_mean_n);
  let s = run_two ~seed:7 classes ~horizon:300.0 in
  Alcotest.(check bool) "default budget does not" false s.truncated

(* Pinned when the classes moved onto the per-peer backend, which changed
   the draw stream: test_conformance's two-class first-jump law checks
   the new stream against Rate.transitions, and "class CIs overlap the
   old simulator" below checks its class statistics in law. *)
let test_golden () =
  let s = run_two ~seed:7 (two_classes ~lam_fast:0.3 ~lam_slow:0.3) ~horizon:300.0 in
  Alcotest.(check int) "events" 10027 s.events;
  Alcotest.(check int) "transfers" 537 s.transfers;
  Alcotest.(check int) "final_n" 16 s.final_n;
  Alcotest.(check int64) "time_avg_n bits" 4622211358025819653L
    (Int64.bits_of_float s.time_avg_n);
  Alcotest.(check (array int64)) "class_mean_n bits"
    [| 4617043990008641753L; 4618371526788256591L |]
    (Array.map Int64.bits_of_float s.class_mean_n)

(* The 40-seed means of the class statistics of [two_classes 0.3 0.3] at
   horizon 1000, with 95% confidence intervals, as the stand-alone
   multi-class simulator this backend replaced measured them (seeds
   1..40; fast then slow).  The per-peer backend must land in
   overlapping intervals. *)
let old_class_mean_n = [| (6.4697, 8.1199); (6.9724, 8.5194) |]
let old_class_mean_sojourn = [| (21.5767, 25.7465); (23.2856, 27.5673) |]

let test_class_cis_overlap_old () =
  let classes = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  let n = Array.init 2 (fun _ -> P2p_stats.Welford.create ()) in
  let sojourn = Array.init 2 (fun _ -> P2p_stats.Welford.create ()) in
  for seed = 1 to 40 do
    let s = run_two ~seed classes ~horizon:1000.0 in
    for c = 0 to 1 do
      P2p_stats.Welford.add n.(c) s.class_mean_n.(c);
      P2p_stats.Welford.add sojourn.(c) s.class_mean_sojourn.(c)
    done
  done;
  let overlap name (lo, hi) w =
    let lo', hi' = P2p_stats.Welford.confidence_interval w ~z:1.96 in
    Alcotest.(check bool)
      (Printf.sprintf "%s: [%.3f, %.3f] overlaps [%.3f, %.3f]" name lo' hi' lo hi)
      true
      (lo' <= hi && lo <= hi')
  in
  for c = 0 to 1 do
    overlap (Printf.sprintf "class %d mean N" c) old_class_mean_n.(c) n.(c);
    overlap (Printf.sprintf "class %d mean sojourn" c) old_class_mean_sojourn.(c) sojourn.(c)
  done

let verdict_of (s : Sim_agent.stats) =
  Classify.verdict_to_string (Classify.of_samples s.samples).verdict

let test_two_class_region_by_simulation () =
  let stable = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  Alcotest.(check string) "heuristic stable" "positive-recurrent"
    (Stability.verdict_to_string (Stability.classify_classes ~k:3 ~us:0.4 stable));
  Alcotest.(check string) "sim stable" "appears-stable"
    (verdict_of (run_two ~seed:2 stable ~horizon:2000.0));
  let transient = two_classes ~lam_fast:1.0 ~lam_slow:1.0 in
  Alcotest.(check string) "heuristic transient" "transient"
    (Stability.verdict_to_string (Stability.classify_classes ~k:3 ~us:0.4 transient));
  Alcotest.(check string) "sim transient" "appears-unstable"
    (verdict_of (run_two ~seed:3 transient ~horizon:2000.0))

let test_fast_class_finishes_faster () =
  (* Downloads come from others' uploads, so both classes download alike;
     but slow peers dwell as seeds for 1/0.6 against the fast class's
     1/6, so their sojourn must be longer. *)
  let s = run_two ~seed:4 (two_classes ~lam_fast:0.3 ~lam_slow:0.3) ~horizon:3000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "slow sojourn %.2f > fast %.2f" s.class_mean_sojourn.(1)
       s.class_mean_sojourn.(0))
    true
    (s.class_mean_sojourn.(1) > s.class_mean_sojourn.(0))

let test_sticky_slow_class_stabilises () =
  (* A small stream of long-dwelling peers can stabilise a load that the
     fast class alone could not: the heterogeneous version of the
     one-more-piece corollary. *)
  let mix sticky =
    [
      { Params.label = "impatient"; mu = 1.0; gamma = infinity; arrivals = [ (PS.empty, 1.0) ] };
      { Params.label = "sticky"; mu = 1.0; gamma = 0.4; arrivals = [ (PS.empty, sticky) ] };
    ]
  in
  let heuristic sticky =
    Stability.verdict_to_string (Stability.classify_classes ~k:2 ~us:0.1 (mix sticky))
  in
  (* without sticky peers: threshold = us/(1-0) = 0.1 << 1.0 transient *)
  Alcotest.(check string) "no sticky: transient" "transient" (heuristic 0.001);
  (* with enough sticky mass, m_bar = (1.0*0 + s*2.5)/(1+s) >= 1 at s >= 2/3 *)
  Alcotest.(check string) "sticky mass rescues" "positive-recurrent" (heuristic 0.8);
  Alcotest.(check string) "sim agrees" "appears-stable"
    (verdict_of (run_classes ~seed:5 ~k:2 ~us:0.1 (mix 0.8) ~horizon:2000.0))

let () =
  Alcotest.run "hetero"
    [
      ( "hetero",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "reduces to Theorem 1" `Quick test_single_class_reduces_to_theorem1;
          Alcotest.test_case "m_bar mixes" `Quick test_mbar_mixes_classes;
          Alcotest.test_case "supercritical" `Quick test_threshold_infinite_when_supercritical;
          Alcotest.test_case "conservation" `Quick test_simulation_conservation;
          Alcotest.test_case "truncation flag" `Quick test_truncation_flag;
          Alcotest.test_case "golden" `Quick test_golden;
          Alcotest.test_case "class CIs overlap the old simulator" `Slow
            test_class_cis_overlap_old;
          Alcotest.test_case "two-class region" `Quick test_two_class_region_by_simulation;
          Alcotest.test_case "sojourn ordering" `Quick test_fast_class_finishes_faster;
          Alcotest.test_case "sticky class rescues" `Quick test_sticky_slow_class_stabilises;
        ] );
    ]
