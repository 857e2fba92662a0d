(* Heterogeneous peer classes: the threshold heuristic and the multi-class
   simulator. *)

open P2p_core
module PS = P2p_pieceset.Pieceset

let closef ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6g got %.6g" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let test_validation () =
  let reject name f =
    Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  reject "no classes" (fun () -> Hetero.make ~k:2 ~us:0.0 ~classes:[]);
  reject "bad mu" (fun () ->
      Hetero.make ~k:2 ~us:0.0
        ~classes:[ { label = "x"; mu = 0.0; gamma = 1.0; arrivals = [ (PS.empty, 1.0) ] } ]);
  reject "no arrivals" (fun () ->
      Hetero.make ~k:2 ~us:0.0
        ~classes:[ { label = "x"; mu = 1.0; gamma = 1.0; arrivals = [] } ]);
  reject "lambda_F with gamma inf" (fun () ->
      Hetero.make ~k:2 ~us:0.0
        ~classes:
          [ { label = "x"; mu = 1.0; gamma = infinity; arrivals = [ (PS.full ~k:2, 1.0) ] } ])

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
    (fun p ->
      let h = Hetero.of_params p in
      Alcotest.(check string) "verdict agrees"
        (Stability.verdict_to_string (Stability.classify p))
        (Stability.verdict_to_string (Hetero.classify_heuristic h));
      for piece = 0 to p.Params.k - 1 do
        closef "threshold agrees" (Stability.threshold p ~piece) (Hetero.threshold h ~piece)
      done)
    cases

let two_classes ~lam_fast ~lam_slow =
  Hetero.make ~k:3 ~us:0.4
    ~classes:
      [
        { label = "fast"; mu = 3.0; gamma = 6.0; arrivals = [ (PS.empty, lam_fast) ] };
        { label = "slow"; mu = 0.3; gamma = 0.6; arrivals = [ (PS.empty, lam_slow) ] };
      ]

let test_mbar_mixes_classes () =
  (* both classes have rho = 1/2, so any mix gives m_bar = 1/2 *)
  closef "equal rho" 0.5 (Hetero.mean_seed_offspring (two_classes ~lam_fast:1.0 ~lam_slow:0.1) ~piece:0);
  (* asymmetric rho: the mix matters *)
  let asym frac =
    Hetero.make ~k:2 ~us:0.1
      ~classes:
        [
          { label = "a"; mu = 1.0; gamma = 4.0; arrivals = [ (PS.empty, frac) ] };
          { label = "b"; mu = 1.0; gamma = 1.25; arrivals = [ (PS.empty, 1.0 -. frac) ] };
        ]
  in
  closef "all a" 0.25 (Hetero.mean_seed_offspring (asym 1.0) ~piece:0);
  closef "all b" 0.8 (Hetero.mean_seed_offspring (asym 0.0) ~piece:0);
  closef "half" 0.525 (Hetero.mean_seed_offspring (asym 0.5) ~piece:0)

let test_threshold_infinite_when_supercritical () =
  let h =
    Hetero.make ~k:2 ~us:0.05
      ~classes:
        [ { label = "sticky"; mu = 1.0; gamma = 0.5; arrivals = [ (PS.empty, 5.0) ] } ]
  in
  closef "m_bar = 2" 2.0 (Hetero.mean_seed_offspring h ~piece:0);
  Alcotest.(check bool) "infinite threshold" true (Hetero.threshold h ~piece:0 = infinity);
  Alcotest.(check string) "stable at any load" "positive-recurrent"
    (Stability.verdict_to_string (Hetero.classify_heuristic h))

let test_simulation_conservation () =
  let h = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  let s = Hetero.simulate_seeded ~seed:1 h ~horizon:1000.0 in
  Alcotest.(check int) "conservation" (s.arrivals - s.departures) s.final_n;
  Alcotest.(check int) "class count" 2 (Array.length s.class_mean_n)

(* The event budget is reported, as by every other simulator. *)
let test_truncation_flag () =
  let h = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  let s = Hetero.simulate_seeded ~max_events:50 ~seed:7 h ~horizon:300.0 in
  Alcotest.(check bool) "budget of 50 truncates" true s.truncated;
  Alcotest.(check int) "events = budget" 50 s.events;
  let s = Hetero.simulate_seeded ~seed:7 h ~horizon:300.0 in
  Alcotest.(check bool) "default budget does not" false s.truncated

(* Pinned from the stand-alone event loop this simulator had before it
   ran on [Engine.drive]: the re-expression kept the draw stream. *)
let test_golden () =
  let h = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  let s = Hetero.simulate_seeded ~seed:7 h ~horizon:300.0 in
  Alcotest.(check int) "events" 8863 s.events;
  Alcotest.(check int) "transfers" 558 s.transfers;
  Alcotest.(check int) "final_n" 15 s.final_n;
  Alcotest.(check int64) "time_avg_n bits" 4625402155371864137L
    (Int64.bits_of_float s.time_avg_n);
  Alcotest.(check (array int64)) "class_mean_n bits"
    [| 4620987091684363247L; 4620810019804624019L |]
    (Array.map Int64.bits_of_float s.class_mean_n)

let test_simulation_matches_single_class_agent () =
  let p = Scenario.flash_crowd ~k:3 ~lambda:0.8 ~us:0.8 ~mu:1.0 ~gamma:2.0 in
  let avg run_fn =
    let w = P2p_stats.Welford.create () in
    for seed = 1 to 8 do
      P2p_stats.Welford.add w (run_fn seed)
    done;
    P2p_stats.Welford.mean w
  in
  let hetero seed =
    (Hetero.simulate_seeded ~seed (Hetero.of_params p) ~horizon:1500.0).time_avg_n
  in
  let agent seed =
    (fst (Sim_agent.run_seeded ~seed:(seed + 40) (Sim_agent.default_config p) ~horizon:1500.0))
      .time_avg_n
  in
  let a = avg agent and h = avg hetero in
  Alcotest.(check bool)
    (Printf.sprintf "same law: %.2f vs %.2f" a h)
    true
    (Float.abs (a -. h) /. Float.max 1.0 a < 0.15)

let test_two_class_region_by_simulation () =
  let stable = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  Alcotest.(check string) "heuristic stable" "positive-recurrent"
    (Stability.verdict_to_string (Hetero.classify_heuristic stable));
  let s = Hetero.simulate_seeded ~seed:2 stable ~horizon:2000.0 in
  Alcotest.(check string) "sim stable" "appears-stable"
    (Classify.verdict_to_string (Classify.of_samples s.samples).verdict);
  let transient = two_classes ~lam_fast:1.0 ~lam_slow:1.0 in
  Alcotest.(check string) "heuristic transient" "transient"
    (Stability.verdict_to_string (Hetero.classify_heuristic transient));
  let s = Hetero.simulate_seeded ~seed:3 transient ~horizon:2000.0 in
  Alcotest.(check string) "sim transient" "appears-unstable"
    (Classify.verdict_to_string (Classify.of_samples s.samples).verdict)

let test_fast_class_finishes_faster () =
  (* The slow class's sojourn is dominated by its own download clock?  No:
     downloads come from others' uploads.  But slow peers dwell as seeds
     for 1/0.6 vs fast 1/6, so their sojourn must be longer. *)
  let h = two_classes ~lam_fast:0.3 ~lam_slow:0.3 in
  let s = Hetero.simulate_seeded ~seed:4 h ~horizon:3000.0 in
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
    Hetero.make ~k:2 ~us:0.1
      ~classes:
        [
          { label = "impatient"; mu = 1.0; gamma = infinity; arrivals = [ (PS.empty, 1.0) ] };
          { label = "sticky"; mu = 1.0; gamma = 0.4; arrivals = [ (PS.empty, sticky) ] };
        ]
  in
  (* without sticky peers: threshold = us/(1-0) = 0.1 << 1.0 transient *)
  Alcotest.(check string) "no sticky: transient" "transient"
    (Stability.verdict_to_string (Hetero.classify_heuristic (mix 0.001)));
  (* with enough sticky mass, m_bar = (1.0*0 + s*2.5)/(1+s) >= 1 at s >= 2/3 *)
  Alcotest.(check string) "sticky mass rescues" "positive-recurrent"
    (Stability.verdict_to_string (Hetero.classify_heuristic (mix 0.8)));
  let s = Hetero.simulate_seeded ~seed:5 (mix 0.8) ~horizon:2000.0 in
  Alcotest.(check string) "sim agrees" "appears-stable"
    (Classify.verdict_to_string (Classify.of_samples s.samples).verdict)

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
          Alcotest.test_case "matches agent" `Slow test_simulation_matches_single_class_agent;
          Alcotest.test_case "two-class region" `Quick test_two_class_region_by_simulation;
          Alcotest.test_case "sojourn ordering" `Quick test_fast_class_finishes_faster;
          Alcotest.test_case "sticky class rescues" `Quick test_sticky_slow_class_stabilises;
        ] );
    ]
