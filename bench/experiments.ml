(* The experiment harness: one block per paper artefact (see DESIGN.md,
   Section 5, and EXPERIMENTS.md for a recorded snapshot).

   Every experiment prints the paper's predicted quantity or verdict next
   to the measured one.  Absolute run lengths are chosen so the whole
   harness finishes in a few minutes on a laptop. *)

module PS = P2p_pieceset.Pieceset
module Abs = P2p_branching.Abs
module GW = P2p_branching.Galton_watson
module Runner = P2p_runner.Runner
open P2p_core

let fmt = Report.fmt_float

let verdict_cell v = Stability.verdict_to_string v
let sim_cell (r : Classify.result) = Classify.verdict_to_string r.verdict

(* ------------------------------------------------------------------ *)

let e1 () =
  Report.banner "E1  Example 1 / Fig 1(a): single piece, peer seeds";
  let us = 0.5 and mu = 1.0 and gamma = 2.0 in
  let crit = Scenario.example1_threshold ~us ~mu ~gamma in
  Printf.printf "Paper: stable iff lambda0 < U_s/(1-mu/gamma) = %.3f (mu<gamma case)\n" crit;
  let rows =
    List.map
      (fun lambda0 ->
        let p = Scenario.example1 ~lambda0 ~us ~mu ~gamma in
        let r = Classify.run ~horizon:3000.0 ~seed:11 p in
        let delta = lambda0 -. crit in
        [
          fmt lambda0;
          verdict_cell (Stability.classify p);
          sim_cell r;
          fmt r.growth_rate;
          (if delta > 0.0 then fmt delta else "-");
          fmt r.mean_n;
        ])
      [ 0.5; 0.8; 0.95; 1.05; 1.2; 1.5; 2.0 ]
  in
  Report.table
    ~header:[ "lambda0"; "theory"; "simulated"; "dN/dt"; "Delta (pred.)"; "mean N" ]
    rows;
  Report.subsection "gamma <= mu: stable at any load (tiny fixed seed)";
  let rows =
    List.map
      (fun lambda0 ->
        let p = Scenario.example1 ~lambda0 ~us:0.05 ~mu ~gamma:0.5 in
        let r = Classify.run ~horizon:2000.0 ~seed:12 p in
        [ fmt lambda0; verdict_cell (Stability.classify p); sim_cell r; fmt r.mean_n ])
      [ 1.0; 5.0; 20.0 ]
  in
  Report.table ~header:[ "lambda0"; "theory"; "simulated"; "mean N" ] rows

(* ------------------------------------------------------------------ *)

let e2 () =
  Report.banner "E2  Example 2 / Fig 1(b): two complementary classes";
  print_endline "Paper: stable iff lambda12 < 2*lambda34 and lambda34 < 2*lambda12.";
  let rows =
    List.map
      (fun (l12, l34) ->
        let p = Scenario.example2 ~lambda12:l12 ~lambda34:l34 ~mu:1.0 in
        let r = Classify.run ~horizon:3000.0 ~seed:21 p in
        [
          fmt l12;
          fmt l34;
          Report.fmt_bool (l12 < 2.0 *. l34 && l34 < 2.0 *. l12);
          verdict_cell (Stability.classify p);
          sim_cell r;
          fmt r.mean_n;
          string_of_int r.final_n;
        ])
      [ (1.0, 1.0); (1.0, 0.7); (1.4, 0.8); (1.0, 0.4); (0.4, 1.0); (2.0, 0.6) ]
  in
  Report.table
    ~header:[ "l12"; "l34"; "paper ineqs"; "theory"; "simulated"; "mean N"; "final N" ]
    rows

(* ------------------------------------------------------------------ *)

let e3 () =
  Report.banner "E3  Example 3 / Fig 1(c): one-piece arrivals";
  let mu = 1.0 and gamma = 1.5 in
  let rho = mu /. gamma in
  Printf.printf
    "Paper: stable iff lambda_i + lambda_j < lambda_k (2+rho)/(1-rho) = lambda_k * %.2f\n"
    ((2.0 +. rho) /. (1.0 -. rho));
  let rows =
    List.map
      (fun ((l1, l2, l3), gamma) ->
        let p = Scenario.example3 ~lambda1:l1 ~lambda2:l2 ~lambda3:l3 ~mu ~gamma in
        let r = Classify.run ~horizon:2500.0 ~seed:31 p in
        [
          Printf.sprintf "(%g,%g,%g)" l1 l2 l3;
          (if Float.is_finite gamma then fmt gamma else "inf");
          verdict_cell (Stability.classify p);
          sim_cell r;
          fmt r.mean_n;
          string_of_int r.final_n;
        ])
      [
        ((1.0, 1.0, 1.0), gamma);
        ((1.5, 1.2, 1.0), gamma);
        ((3.0, 3.0, 0.7), gamma);
        ((0.2, 1.0, 1.0), gamma);
        ((1.0, 1.0, 1.3), infinity);
        ((1.3, 1.0, 1.0), infinity);
      ]
  in
  Report.table
    ~header:[ "(l1,l2,l3)"; "gamma"; "theory"; "simulated"; "mean N"; "final N" ]
    rows;
  (* fluid-limit cross check at the stable point *)
  let p = Scenario.example3 ~lambda1:1.0 ~lambda2:1.0 ~lambda3:1.0 ~mu ~gamma in
  (match Fluid.equilibrium p ~init:(Fluid.of_state ~k:3 (State.create ())) with
  | Some eq ->
      let stats, _ =
        Sim_markov.run_seeded ~seed:32 ~sample_every:2.0 (Sim_markov.default_config p)
          ~horizon:4000.0
      in
      let est = P2p_stats.Batch_means.of_int_samples stats.samples in
      Report.kv
        [
          ("fluid equilibrium n (baseline [11])", fmt (Fluid.total eq));
          ("stochastic time-average n", fmt stats.time_avg_n);
          ( "batch-means 95% interval",
            Printf.sprintf "%s +/- %s" (fmt est.mean) (fmt est.half_width) );
        ]
  | None -> print_endline "  fluid equilibrium not found (unexpected)")

(* ------------------------------------------------------------------ *)

let e4 () =
  Report.banner "E4  Fig 2: missing piece syndrome group decomposition";
  let k = 4 in
  let params = Scenario.flash_crowd ~k ~lambda:1.0 ~us:0.2 ~mu:1.0 ~gamma:2.0 in
  let piece = Stability.binding_piece params in
  let thr = Stability.threshold params ~piece in
  let delta = Params.lambda_total params -. thr in
  Printf.printf "Transient setup: threshold %.3f < lambda 1.0; predicted club growth %.3f/t\n"
    thr delta;
  let club = PS.remove 0 (PS.full ~k) in
  let config = { (Sim_agent.default_config params) with initial = [ (club, 300) ] } in
  let stats, _ = Sim_agent.run_seeded ~seed:41 ~sample_every:10.0 config ~horizon:600.0 in
  let rows = ref [] in
  Array.iteri
    (fun i ((t, g) : float * Sim_agent.groups) ->
      if i mod 6 = 0 then
        rows :=
          [
            fmt t;
            string_of_int g.young;
            string_of_int g.infected;
            string_of_int g.gifted;
            string_of_int g.one_club;
            string_of_int g.former_one_club;
            string_of_int (Sim_agent.groups_total g);
          ]
          :: !rows)
    stats.group_samples;
  Report.table
    ~header:[ "time"; "young"; "infected"; "gifted"; "one-club"; "former"; "total" ]
    (List.rev !rows);
  let fit = Classify.of_samples stats.samples in
  Report.kv
    [
      ("measured growth rate", fmt fit.growth_rate);
      ("paper-predicted Delta", fmt delta);
      ("one-club time fraction", fmt stats.one_club_time_fraction);
    ]

(* ------------------------------------------------------------------ *)

let e5 () =
  Report.banner "E5  Theorem 1 phase diagram: theory vs simulation";
  let k = 3 and mu = 1.0 and gamma = 2.0 in
  Printf.printf "K=%d mu=%g gamma=%g, empty-handed arrivals; cells: theory/simulated\n" k mu gamma;
  let lambdas = [ 0.5; 1.0; 1.5; 2.0; 2.5 ] in
  let seeds = [ 0.4; 0.8; 1.2; 1.6 ] in
  let agree = ref 0 and total = ref 0 and borderline = ref 0 in
  let rows =
    List.map
      (fun lambda ->
        fmt lambda
        :: List.map
             (fun us ->
               let p = Scenario.flash_crowd ~k ~lambda ~us ~mu ~gamma in
               let theory = Stability.classify p in
               let sim = (Classify.run ~horizon:1600.0 ~seed:51 p).verdict in
               let tsym =
                 match theory with
                 | Stability.Positive_recurrent -> "+"
                 | Stability.Transient -> "-"
                 | Stability.Borderline -> "0"
               in
               let ssym =
                 match sim with
                 | Classify.Appears_stable -> "+"
                 | Classify.Appears_unstable -> "-"
                 | Classify.Inconclusive -> "?"
               in
               (match theory with
               | Stability.Borderline -> incr borderline
               | Stability.Positive_recurrent | Stability.Transient ->
                   incr total;
                   if tsym = ssym then incr agree);
               tsym ^ "/" ^ ssym)
             seeds)
      lambdas
  in
  Report.table ~header:("lambda\\U_s" :: List.map fmt seeds) rows;
  Printf.printf "agreement on non-borderline cells: %d/%d\n" !agree !total

(* ------------------------------------------------------------------ *)

let e6 () =
  Report.banner "E6  Corollary: dwell long enough to upload one piece";
  let k = 4 and mu = 1.0 in
  print_endline
    "Paper: with gamma <= mu (mean dwell >= one upload time) the system is\n\
     stable for any arrival rate and any positive piece inflow.";
  (* Note gamma = mu is the critical point of the peer-seed branching:
     stable but with enormous boom-bust excursions, so the sweep uses a
     clear margin (gamma = 0.8 < mu) plus one critical and one transient
     row for contrast. *)
  let rows =
    List.map
      (fun (lambda, gamma) ->
        let p = Scenario.flash_crowd ~k ~lambda ~us:0.05 ~mu ~gamma in
        let r = Classify.run ~horizon:1500.0 ~seed:61 p in
        [
          fmt lambda;
          fmt gamma;
          verdict_cell (Stability.classify p);
          sim_cell r;
          fmt r.mean_n;
        ])
      [ (1.0, 0.8); (4.0, 0.8); (12.0, 0.8); (1.0, 0.5); (1.0, 1.3) ]
  in
  Report.table ~header:[ "lambda"; "gamma"; "theory"; "simulated"; "mean N" ] rows;
  Report.subsection "insensitivity to the dwell distribution (conclusion's conjecture)";
  let params = Scenario.flash_crowd ~k ~lambda:2.0 ~us:0.05 ~mu ~gamma:0.7 in
  let rows =
    List.map
      (fun (name, dwell) ->
        let config = { (Sim_agent.default_config params) with dwell } in
        let stats, _ = Sim_agent.run_seeded ~seed:62 config ~horizon:1500.0 in
        let r = Classify.of_samples stats.samples in
        [ name; sim_cell r; fmt stats.time_avg_n; fmt stats.mean_sojourn ])
      [
        ("exponential", Sim_agent.Exp_dwell);
        ("deterministic", Sim_agent.Deterministic_dwell);
        ("Erlang-4", Sim_agent.Erlang_dwell 4);
      ]
  in
  Report.table ~header:[ "dwell law"; "simulated"; "mean N"; "mean sojourn" ] rows

(* ------------------------------------------------------------------ *)

let e7 () =
  Report.banner "E7  Theorem 14: piece-selection policy insensitivity";
  print_endline "Paper: the stability region is the same for every useful policy.";
  let stable = Scenario.flash_crowd ~k:3 ~lambda:0.9 ~us:0.8 ~mu:1.0 ~gamma:2.0 in
  let transient = Scenario.flash_crowd ~k:3 ~lambda:1.3 ~us:0.3 ~mu:1.0 ~gamma:infinity in
  let policies =
    [ Policy.random_useful; Policy.rarest_first; Policy.most_common_first; Policy.sequential ]
  in
  let rows =
    List.map
      (fun (policy : Policy.t) ->
        let run p seed =
          let config = { (Sim_agent.default_config p) with policy } in
          let stats, _ = Sim_agent.run_seeded ~seed config ~horizon:2200.0 in
          Classify.of_samples stats.samples
        in
        let rs = run stable 71 and rt = run transient 72 in
        [ policy.name; sim_cell rs; fmt rs.mean_n; sim_cell rt; fmt rt.growth_rate ])
      policies
  in
  Report.table
    ~header:
      [ "policy"; "stable cfg verdict"; "mean N"; "transient cfg verdict"; "dN/dt" ]
    rows

(* ------------------------------------------------------------------ *)

let e8 () =
  Report.banner "E8  Theorem 15: network coding with gifted arrivals";
  Report.subsection "paper's numeric example, q = 64, K = 200";
  Report.kv
    [
      ("paper: transient if f <= 0.00507; computed",
       fmt (Stability.Coded.transient_f_threshold ~q:64 ~k:200));
      ("paper: recurrent if f >= 0.00516; computed (exact Eq. 55)",
       fmt (Stability.Coded.recurrent_f_threshold_exact ~q:64 ~k:200));
      ("paper's displayed approximation q^2/((q-1)^2 K)",
       fmt (Stability.Coded.recurrent_f_threshold_paper ~q:64 ~k:200));
    ];
  let q = 16 and k = 8 in
  Report.subsection
    (Printf.sprintf "reduced-scale simulation, q=%d K=%d (thresholds %.4f / %.4f)" q k
       (Stability.Coded.transient_f_threshold ~q ~k)
       (Stability.Coded.recurrent_f_threshold_exact ~q ~k));
  (* Replicated: each f runs R independent replications through the
     multicore runner (deterministic streams, so the table is
     bit-reproducible for every jobs count); the sim verdict is the
     replication majority and mean N carries a 95% CI. *)
  let reps = 8 in
  let rows =
    List.map
      (fun f ->
        let g = { Stability.Coded.q; k; us = 0.0; mu = 1.0; gamma = infinity;
                  lambda0 = 1.0 -. f; lambda1 = f } in
        let config = Sim_coded.of_gift g in
        let results, _ =
          Runner.run_map ~master_seed:81 ~replications:reps (fun ~rng ~index:_ ->
              let s = Sim_coded.run ~rng config ~horizon:900.0 in
              let r = Classify.of_samples s.samples in
              (s.time_avg_n, r.growth_rate, r.verdict))
        in
        let avg = P2p_stats.Welford.create () in
        let growth = P2p_stats.Welford.create () in
        let stable = ref 0 in
        Array.iter
          (function
            | Some (n, g, v) ->
                P2p_stats.Welford.add avg n;
                P2p_stats.Welford.add growth g;
                if v = Classify.Appears_stable then incr stable
            | None -> ())
          results;
        let lo, hi = P2p_stats.Welford.confidence_interval avg ~z:1.96 in
        [
          fmt f;
          verdict_cell (Stability.Coded.classify g);
          Printf.sprintf "appears-stable %d/%d" !stable reps;
          fmt (P2p_stats.Welford.mean avg);
          Printf.sprintf "[%s, %s]" (fmt lo) (fmt hi);
          fmt (P2p_stats.Welford.mean growth);
          (if Stability.Coded.uncoded_equivalent_is_transient ~k ~f then "transient" else "-");
        ])
      [ 0.02; 0.06; 0.10; 0.20; 0.35; 0.60 ]
  in
  Report.table
    ~header:
      [ "f"; "coded theory"; "coded sim"; "mean N"; "95% CI"; "dN/dt"; "uncoded theory" ]
    rows;
  Report.subsection "uncoded contrast, simulated (f = 0.35: coded stable, uncoded transient)";
  let uncoded = Scenario.gift_uncoded ~k ~lambda_total:1.0 ~f:0.35 ~mu:1.0 in
  let r = Classify.run ~horizon:900.0 ~seed:82 uncoded in
  Report.kv
    [
      ("uncoded theory", verdict_cell (Stability.classify uncoded));
      ("uncoded simulated", sim_cell r);
      ("uncoded growth rate", fmt r.growth_rate);
    ]

(* ------------------------------------------------------------------ *)

let e9 () =
  Report.banner "E9  Section VI: autonomous branching system constants";
  let k = 4 and mu = 1.0 and gamma = 2.0 in
  Printf.printf "K=%d mu=%g gamma=%g; paper limits: m_b -> K/(1-rho)=%.3f, m_f -> 1/(1-rho)=%.3f\n"
    k mu gamma
    (float_of_int k /. 0.5) (1.0 /. 0.5);
  let rng = P2p_prng.Rng.of_seed 91 in
  let rows =
    List.map
      (fun xi ->
        let p = { Abs.k; mu; gamma; xi } in
        let gw = Abs.to_galton_watson p in
        let generic = GW.expected_progeny gw in
        let mc = GW.mean_progeny_monte_carlo ~rng gw ~root:1 ~replications:20_000 ~cap:1_000_000 in
        [
          fmt xi;
          fmt (Abs.m_b p);
          fmt generic.(0);
          fmt (Abs.m_f p);
          fmt generic.(1);
          fmt (P2p_stats.Welford.mean mc);
          fmt (Abs.m_g p ~c_size:1);
        ])
      [ 0.0; 0.02; 0.05; 0.1 ]
  in
  Report.table
    ~header:
      [ "xi"; "m_b closed"; "m_b solve"; "m_f closed"; "m_f solve"; "m_f MC"; "m_g(|C|=1)" ]
    rows;
  Report.kv
    [
      ( "finiteness condition (6) LHS at xi=0.1",
        fmt (Abs.finiteness_lhs { Abs.k; mu; gamma; xi = 0.1 }) );
      ( "criticality (spectral radius) at xi=0.05",
        fmt (GW.criticality (Abs.to_galton_watson { Abs.k; mu; gamma; xi = 0.05 })) );
    ]

(* ------------------------------------------------------------------ *)

let e10 () =
  Report.banner "E10  Fig 3 / Section VIII-D: the mu = infinity borderline process";
  let cfg = { Mu_infinity.k = 3; lambda = 1.0 } in
  let rng = P2p_prng.Rng.of_seed 101 in
  let run = Mu_infinity.simulate rng cfg ~init:{ Mu_infinity.n = 50; pieces = 2 } ~steps:400_000 in
  Report.kv
    [
      ("E[Z] (paper: K-1 = zero drift)", fmt (Mu_infinity.z_expectation ~k:3));
      ("measured mean top-layer increment", fmt run.mean_top_increment);
      ("max club size reached", string_of_int run.max_n);
    ];
  Report.subsection "null recurrence: truncated mean excursion length grows with the cap";
  let rows =
    List.map
      (fun cap ->
        let rng = P2p_prng.Rng.of_seed 102 in
        let excs = Mu_infinity.excursions rng cfg ~start_n:3 ~count:2000 ~cap_steps:cap in
        let total =
          List.fold_left (fun acc (e : Mu_infinity.excursion) -> acc + e.length) 0 excs
        in
        let capped = List.length (List.filter (fun (e : Mu_infinity.excursion) -> e.capped) excs) in
        [ string_of_int cap; fmt (float_of_int total /. 2000.0); string_of_int capped ])
      [ 100; 1_000; 10_000; 100_000 ]
  in
  Report.table ~header:[ "cap (steps)"; "truncated mean length"; "capped runs" ] rows;
  Report.subsection "the watched process emerges from finite mu (weak-limit check)";
  print_endline
    "Watching the finite-mu chain on slow states and comparing the observed\n\
     top-layer jump law with the analytic coin-flip law (TV distance):";
  let pmf = Watched.analytic_jump_pmf ~k:3 ~max_drop:8 in
  let rows =
    List.map
      (fun mu ->
        let rng = P2p_prng.Rng.of_seed 104 in
        let tr = Watched.extract ~min_top_n:4 ~rng ~k:3 ~lambda:1.0 ~mu ~horizon:400.0 () in
        let jumps = List.fold_left (fun a (_, c) -> a + c) 0 tr.top_layer_jumps in
        [
          fmt mu;
          string_of_int jumps;
          fmt (Watched.total_variation pmf tr.top_layer_jumps);
          fmt tr.fast_time_fraction;
        ])
      [ 2.0; 10.0; 50.0; 200.0 ]
  in
  Report.table
    ~header:[ "mu"; "observed jumps"; "TV to coin-flip law"; "fast-time fraction" ]
    rows;
  Report.subsection "Conjecture 17: finite mu, symmetric single-piece arrivals (K=3)";
  print_endline
    "Witness: the ratio of time-average N at horizon 4000 vs 1000 (averaged\n\
     over 4 seeds).  Positive recurrence -> ratio near 1; null recurrence ->\n\
     the time average keeps growing with the horizon.";
  let rows =
    List.map
      (fun mu ->
        (* 4 replications per horizon, spread over the available cores. *)
        let avg horizon =
          let summary =
            Runner.run_summary ~metrics:[ "mean N" ] ~master_seed:1040 ~replications:4
              (fun ~rng ~index:_ ->
                let p = Scenario.symmetric_singletons ~k:3 ~lambda:1.0 ~mu in
                let stats, _ = Sim_markov.run ~rng (Sim_markov.default_config p) ~horizon in
                Runner.rep [| stats.time_avg_n |])
          in
          P2p_stats.Welford.mean (snd (List.hd summary.stats))
        in
        let short = avg 1000.0 and long = avg 4000.0 in
        [ fmt mu; fmt short; fmt long; fmt (long /. short) ])
      [ 0.3; 1.0; 3.0; 10.0 ]
  in
  Report.table
    ~header:[ "mu/lambda"; "mean N (T=1000)"; "mean N (T=4000)"; "growth ratio" ]
    rows;
  print_endline
    "(conjecture: positive recurrent below some a_K, null recurrent above --\n\
     a growth ratio well above 1 signals the null-recurrent knife edge)"

(* ------------------------------------------------------------------ *)

let e11 () =
  Report.banner "E11  Foster-Lyapunov certificate: exact drift of W";
  let cases =
    [
      ("gamma finite, mu<gamma (Eq. 11)",
       Scenario.example3 ~lambda1:1.0 ~lambda2:1.0 ~lambda3:1.0 ~mu:1.0 ~gamma:1.5,
       [ 500; 3000 ]);
      ("gamma = inf (Eq. 12)",
       Scenario.flash_crowd ~k:2 ~lambda:0.5 ~us:1.0 ~mu:1.0 ~gamma:infinity,
       [ 500; 3000 ]);
      ("gamma <= mu (Eq. 43, W')",
       Params.make ~k:2 ~us:0.5 ~mu:1.0 ~gamma:0.5 ~arrivals:[ (PS.empty, 5.0) ],
       [ 2000; 10000 ]);
    ]
  in
  List.iter
    (fun (label, p, sizes) ->
      Report.subsection label;
      let coeffs = Lyapunov.default_coeffs p in
      let points = Lyapunov.scan_class_one p coeffs ~sizes in
      let worst_small =
        List.fold_left
          (fun acc (pt : Lyapunov.scan_point) ->
            if pt.n = List.nth sizes 0 then Float.max acc pt.drift_per_peer else acc)
          neg_infinity points
      in
      let worst_large =
        List.fold_left
          (fun acc (pt : Lyapunov.scan_point) ->
            if pt.n = List.nth sizes 1 then Float.max acc pt.drift_per_peer else acc)
          neg_infinity points
      in
      Report.kv
        [
          ("theory", verdict_cell (Stability.classify p));
          ( Printf.sprintf "worst QW/n over one-type states, n=%d" (List.nth sizes 0),
            fmt worst_small );
          ( Printf.sprintf "worst QW/n over one-type states, n=%d" (List.nth sizes 1),
            fmt worst_large );
          ("negative at large n (Lemma 12)", Report.fmt_bool (worst_large < 0.0));
        ])
    cases

(* ------------------------------------------------------------------ *)

let e12 () =
  Report.banner "E12  Appendix bounds: Kingman (Prop. 20) and M/GI/inf (Lemma 21)";
  (* Crossing frequencies are embarrassingly parallel: each replication is
     an independent sample path, so both sweeps go through the runner. *)
  let frequency ~master_seed ~replications crossed =
    let summary =
      Runner.run_summary ~metrics:[ "crossed" ] ~master_seed ~replications
        (fun ~rng ~index:_ -> Runner.rep [| (if crossed ~rng then 1.0 else 0.0) |])
    in
    P2p_stats.Welford.mean (snd (List.hd summary.stats))
  in
  Report.subsection "Kingman bound on boundary crossing of a compound Poisson path";
  let batch = P2p_queueing.Compound_poisson.geometric_total_progeny ~mean_offspring:0.5 in
  let rows =
    List.map
      (fun b ->
        let bound =
          P2p_queueing.Compound_poisson.kingman_bound ~arrival_rate:1.0 ~batch ~b ~slope:3.0
        in
        let freq =
          frequency ~master_seed:121 ~replications:300 (fun ~rng ->
              (P2p_queueing.Compound_poisson.simulate_crossing ~rng ~arrival_rate:1.0 ~batch
                 ~horizon:1500.0 ~b ~slope:3.0)
                .crossed)
        in
        [ fmt b; fmt bound; fmt freq ])
      [ 5.0; 15.0; 40.0 ]
  in
  Report.table ~header:[ "B"; "Kingman bound"; "empirical frequency" ] rows;
  Report.subsection "Lemma 21 maximal bound for M/GI/inf";
  let service = P2p_queueing.Mg_inf.Exponential 1.0 in
  let rows =
    List.map
      (fun b ->
        let bound =
          P2p_queueing.Bounds.mg_inf_maximal_bound ~arrival_rate:1.0 ~mean_service:1.0 ~b
            ~eps:1.0
        in
        let freq =
          frequency ~master_seed:122 ~replications:200 (fun ~rng ->
              P2p_queueing.Mg_inf.exceedance_ever ~rng ~arrival_rate:1.0 ~service ~horizon:400.0
                ~boundary:(fun t -> b +. t))
        in
        [ fmt b; fmt bound; fmt freq ])
      [ 8.0; 12.0; 20.0 ]
  in
  Report.table ~header:[ "B"; "Lemma 21 bound"; "empirical frequency" ] rows

(* ------------------------------------------------------------------ *)

let e13 () =
  Report.banner "E13  Section VIII-C: faster retry after unsuccessful contacts";
  print_endline
    "Push model with clock speedup eta after a useless contact.  The paper\n\
     predicts the speedup WORSENS the missing piece syndrome when peers\n\
     arrive with pieces: one-club members (whose contacts are mostly\n\
     useless) get boosted and feed the gifted peers' downloads, so a gifted\n\
     peer finishes after uploading the rare piece only ~(K-|C|)/eta + mu/gamma\n\
     times instead of K-|C| + mu/gamma.\n";
  (* K=3; piece 1 is rare: it enters only with type-{1} gifted arrivals.
     Type {2,3} peers (missing only piece 1) arrive at rate 1.0.
     eta = 1: threshold for piece 1 = 0.4*(3)/(1-0.5) = 2.4 > 1.4 (stable).
     eta large: each gifted peer uploads only ~(2/eta + 0.5) copies before
     seeding, so departures fall to ~0.4*(2/eta+0.5)/(1-0.5) < 1.4
     (effectively transient). *)
  let k = 3 in
  let params =
    Params.make ~k ~us:0.0 ~mu:1.0 ~gamma:2.0
      ~arrivals:[ (PS.of_list [ 1; 2 ], 1.0); (PS.singleton 0, 0.4) ]
  in
  let rho = Params.mu_over_gamma params in
  let predicted_departure eta = 0.4 *. ((2.0 /. eta) +. rho) /. (1.0 -. rho) in
  Report.kv
    [
      ("eta = 1 theory (Theorem 1)", verdict_cell (Stability.classify params));
      ("arrival rate of club candidates", fmt 1.4);
      ("predicted club departure rate, eta=1", fmt (predicted_departure 1.0));
      ("predicted club departure rate, eta=10", fmt (predicted_departure 10.0));
    ];
  (* The paper's argument is first-order in the non-club fraction, so we
     probe a deep one-club (3000 peers): there, club members are
     essentially always boosted while gifted peers (whose uploads almost
     always succeed) never are — the exact asymmetry of the push model.
     Predicted net club drift = 1.0 − predicted departure rate. *)
  let club = PS.of_list [ 1; 2 ] in
  let rows =
    List.map
      (fun eta ->
        let config =
          { (Sim_agent.default_config params) with eta; initial = [ (club, 3000) ] }
        in
        let stats, _ = Sim_agent.run_seeded ~seed:131 config ~horizon:400.0 in
        let r = Classify.of_samples stats.samples in
        [
          fmt eta;
          fmt (1.0 -. predicted_departure eta);
          fmt r.growth_rate;
          fmt stats.one_club_time_fraction;
          string_of_int stats.final_n;
        ])
      [ 1.0; 3.0; 10.0 ]
  in
  Report.table
    ~header:[ "eta"; "predicted dN/dt"; "measured dN/dt"; "one-club fraction"; "final N" ]
    rows;
  print_endline
    "(negative drift at eta=1 flipping to positive growth at large eta = the\n\
     speedup worsening the missing piece syndrome, the Section VIII-C caveat)"

(* ------------------------------------------------------------------ *)

let e14 () =
  Report.banner "E14  Quasi-stability: onset time of the one-club (conclusion's future work)";
  print_endline
    "Theorem 14: the stability REGION is insensitive to the piece-selection\n\
     policy.  The paper's conclusion asks about the LONGEVITY of the good\n\
     quasi-equilibrium in provably transient systems.  We measure, from an\n\
     empty start, the first time the one-club holds 60% of a population of\n\
     at least 80 peers (median over 9 seeds; '-' = not within the horizon).";
  let k = 4 in
  let params = Scenario.flash_crowd ~k ~lambda:1.0 ~us:0.35 ~mu:1.0 ~gamma:infinity in
  Printf.printf "config: %s (threshold %.2f < lambda %.2f)\n"
    (verdict_cell (Stability.classify params))
    (Stability.threshold params ~piece:0)
    (Params.lambda_total params);
  let horizon = 2500.0 in
  let onset_for (policy : Policy.t) seed =
    (* First find which piece went rare, then re-run with the group
       tracker pointed at it. *)
    let base = { (Sim_agent.default_config params) with policy } in
    let _, final = Sim_agent.run_seeded ~seed base ~horizon in
    let rare = if State.n final = 0 then 0 else Metrics.rarest_piece final ~k in
    let stats, _ = Sim_agent.run_seeded ~seed { base with rare_piece = rare } ~horizon in
    Metrics.club_onset stats ~fraction:0.6 ~min_population:80
  in
  let rows =
    List.map
      (fun (policy : Policy.t) ->
        let onsets = List.filter_map (fun s -> onset_for policy (1400 + s)) (List.init 9 Fun.id) in
        let detected = List.length onsets in
        let median =
          if detected = 0 then "-"
          else begin
            let sorted = List.sort Float.compare onsets in
            fmt (List.nth sorted (detected / 2))
          end
        in
        [ policy.name; Printf.sprintf "%d/9" detected; median ])
      [ Policy.random_useful; Policy.rarest_first; Policy.most_common_first; Policy.sequential ]
  in
  Report.table ~header:[ "policy"; "onset detected"; "median onset time" ] rows;
  print_endline
    "(rarest-first postpones the syndrome relative to most-common-first even\n\
     though all four policies are transient here — selection shapes\n\
     longevity, not the region)"

(* ------------------------------------------------------------------ *)

let e15 () =
  Report.banner "E15  Exact stationary analysis (truncated chain)";
  print_endline
    "Theorem 1(b) promises E[N] < infinity inside the region.  Exact\n\
     stationary distributions on a truncated space give the quantitative\n\
     version: E[N] finite and blowing up only at the boundary.";
  Report.subsection "K=1 gamma=inf is M/M/1: solver vs closed form";
  let lambda = 0.6 and us = 1.0 in
  let p = Params.make ~k:1 ~us ~mu:1.0 ~gamma:infinity ~arrivals:[ (PS.empty, lambda) ] in
  let chain = Truncated.build p ~n_max:120 in
  let pi = Truncated.stationary chain in
  let rho = lambda /. us in
  Report.kv
    [
      ("exact E[N]", fmt (Truncated.mean_population chain pi));
      ("M/M/1 rho/(1-rho)", fmt (rho /. (1.0 -. rho)));
      ("exact P(empty)", fmt (Truncated.probability_empty chain pi));
      ("M/M/1 1-rho", fmt (1.0 -. rho));
    ];
  Report.subsection "E[N] along a ray to the Theorem 1 boundary (Example 1, threshold 1)";
  let rows =
    List.map
      (fun lambda0 ->
        let p = Scenario.example1 ~lambda0 ~us:0.5 ~mu:1.0 ~gamma:2.0 in
        let n_max = Int.min 240 (int_of_float (20.0 /. (1.0 -. lambda0))) in
        let chain = Truncated.build p ~n_max in
        let pi = Truncated.stationary ~tol:1e-9 chain in
        [
          fmt lambda0;
          fmt (Truncated.mean_population chain pi);
          fmt (Truncated.truncation_mass_at_cap chain pi);
        ])
      [ 0.5; 0.7; 0.85; 0.93 ]
  in
  Report.table ~header:[ "lambda0"; "exact E[N]"; "cap mass" ] rows;
  Report.subsection "exact vs simulated E[N], K=2 swarm";
  let p2 = Params.make ~k:2 ~us:0.8 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.5) ] in
  let chain2 = Truncated.build p2 ~n_max:22 in
  let pi2 = Truncated.stationary chain2 in
  let stats, _ = Sim_markov.run_seeded ~seed:151 (Sim_markov.default_config p2) ~horizon:15000.0 in
  Report.kv
    [
      ("exact E[N]", fmt (Truncated.mean_population chain2 pi2));
      ("simulated E[N]", fmt stats.time_avg_n);
      ( "exact mean peer seeds (Little: lambda/gamma = 0.25)",
        fmt (Truncated.mean_type_count chain2 pi2 (PS.full ~k:2)) );
    ]

(* ------------------------------------------------------------------ *)

let e16 () =
  Report.banner "E16  Theorem 15's chain, exactly: the subspace-type Markov process";
  print_endline
    "For small q^K the subspace lattice is enumerable, making the coded\n\
     chain exactly computable: arrival laws from the span distribution of\n\
     random gift matrices, transfer rates from exact cover-lift\n\
     probabilities, the Eq. (56) Lyapunov drift, and truncated stationary\n\
     distributions.  Setting: q=2, K=2, lambda0 = lambda1 = 0.5.";
  let gift us =
    { Stability.Coded.q = 2; k = 2; us; mu = 1.0; gamma = infinity; lambda0 = 0.5;
      lambda1 = 0.5 }
  in
  let make us =
    Coded_chain.create
      { Coded_chain.q = 2; k = 2; us; mu = 1.0; gamma = infinity;
        arrivals = [ (0, 0.5); (1, 0.5) ] }
  in
  let rows =
    List.map
      (fun us ->
        let t = make us in
        let verdict = Stability.Coded.classify (gift us) in
        let s = Sim_coded.run_seeded ~seed:161 (Sim_coded.of_gift (gift us)) ~horizon:2500.0 in
        let exact =
          match verdict with
          | Stability.Positive_recurrent ->
              let solved = Coded_chain.stationary t ~n_max:25 in
              Printf.sprintf "%s (cap %.1e)" (fmt solved.mean_n) solved.mass_at_cap
          | Stability.Transient | Stability.Borderline -> "-"
        in
        let coeffs = Coded_chain.default_coeffs t in
        let worst_drift =
          List.fold_left
            (fun acc (pt : Lyapunov.scan_point) -> Float.max acc pt.drift_per_peer)
            neg_infinity
            (Coded_chain.scan_hyperplane_states t coeffs ~sizes:[ 3000 ])
        in
        [
          fmt us;
          verdict_cell verdict;
          fmt s.time_avg_n;
          exact;
          fmt worst_drift;
        ])
      [ 0.0; 0.5; 2.0 ]
  in
  Report.table
    ~header:
      [ "U_s"; "theory (Thm 15)"; "sim mean N"; "exact E[N]"; "worst QW/n @ club n=3000" ]
    rows;
  print_endline
    "(the Eq. 56 drift flips sign exactly where Theorem 15 says the region\n\
     boundary is; exact E[N] from the truncated subspace-type chain)"

(* ------------------------------------------------------------------ *)

let e17 () =
  Report.banner "E17  Beyond the fully connected overlay (conclusion's future work)";
  print_endline
    "Contacts restricted to a dynamic random overlay: each arrival links to\n\
     'deg' uniform peers and keeps those links for life; only the fixed\n\
     seed stays globally reachable.  deg = inf recovers the paper's model\n\
     exactly.  Does the Theorem 1 region survive sparsification?";
  let stable = Scenario.flash_crowd ~k:3 ~lambda:0.9 ~us:0.8 ~mu:1.0 ~gamma:2.0 in
  let transient = Scenario.flash_crowd ~k:3 ~lambda:1.3 ~us:0.3 ~mu:1.0 ~gamma:infinity in
  let random = (Policy.random_useful, Sim_agent.Swarm) in
  let run params degree (policy, census) seed =
    let cfg = { (Sim_agent.default_config params) with degree; policy; census } in
    Sim_agent.run_seeded ~seed cfg ~horizon:1600.0
  in
  let degree_label = function None -> "inf" | Some d -> string_of_int d in
  Report.subsection "stable configuration (threshold 1.6 > lambda 0.9)";
  Report.table
    ~header:[ "deg"; "verdict"; "mean N"; "mean overlay degree"; "components at end" ]
    (List.map
       (fun degree ->
         let s, _ = run stable degree random 171 in
         let r = Classify.of_samples s.samples in
         [
           degree_label degree;
           Classify.verdict_to_string r.verdict;
           fmt s.time_avg_n;
           (if Float.is_nan s.mean_degree_time_avg then "-" else fmt s.mean_degree_time_avg);
           string_of_int (List.length s.final_component_sizes);
         ])
       [ None; Some 8; Some 4; Some 2; Some 1 ]);
  Report.subsection "transient configuration (threshold 0.3 < lambda 1.3)";
  Report.table
    ~header:[ "deg"; "verdict"; "dN/dt"; "final club fraction" ]
    (List.map
       (fun degree ->
         let s, _ = run transient degree random 172 in
         let r = Classify.of_samples s.samples in
         let _, club = s.club_samples.(Array.length s.club_samples - 1) in
         [
           degree_label degree;
           Classify.verdict_to_string r.verdict;
           fmt r.growth_rate;
           fmt club;
         ])
       [ None; Some 4; Some 2 ]);
  Report.subsection "piece selection on the overlay (stable config, deg = 4)";
  Report.table
    ~header:[ "piece choice"; "verdict"; "mean N"; "silent contacts" ]
    (List.map
       (fun (label, choice) ->
         let s, _ = run stable (Some 4) choice 173 in
         let r = Classify.of_samples s.samples in
         [
           label;
           Classify.verdict_to_string r.verdict;
           fmt s.time_avg_n;
           string_of_int s.silent_contacts;
         ])
       [
         ("random useful", random);
         ("rarest (global info)", (Policy.rarest_first, Sim_agent.Swarm));
         ("rarest (neighborhood info)", (Policy.random_useful, Sim_agent.Neighbourhood));
       ]);
  print_endline
    "(the stability region survives sparsification down to degree 1 here\n\
     because the fixed seed remains globally reachable; the overlay changes\n\
     the constants, not the verdicts -- supporting the paper's hope that the\n\
     results adapt to other topologies)"

(* ------------------------------------------------------------------ *)

let e18 () =
  Report.banner "E18  Heterogeneous peer classes (conclusion's future work)";
  print_endline
    "Two classes sharing one swarm: impatient peers (gamma = inf, leave on\n\
     completion) and sticky peers (mu = 1, gamma = 0.4, dwell mean 2.5).\n\
     The generalised seed-branching factor m_bar = (mix-weighted mu/gamma)\n\
     predicts the region; shifting arrival mass toward the sticky class\n\
     crosses m_bar = 1 and stabilises an otherwise hopeless load (the\n\
     heterogeneous version of the one-more-piece corollary).";
  let mix sticky =
    [
      { Params.label = "impatient"; mu = 1.0; gamma = infinity; arrivals = [ (PS.empty, 1.0) ] };
      { Params.label = "sticky"; mu = 1.0; gamma = 0.4; arrivals = [ (PS.empty, sticky) ] };
    ]
  in
  let simulate ~seed classes =
    fst (Sim_agent.run_seeded ~seed (Sim_agent.class_config ~k:2 ~us:0.1 classes) ~horizon:2500.0)
  in
  let rows =
    List.map
      (fun sticky ->
        let classes = mix sticky in
        let m_bar = Stability.mean_seed_offspring classes ~piece:0 in
        let verdict = Stability.classify_classes ~k:2 ~us:0.1 classes in
        (* one run near the boundary is noisy: the modal verdict of
           seeds 181-189, a tie reading inconclusive *)
        let runs = List.init 9 (fun i -> simulate ~seed:(181 + i) classes) in
        let votes = List.map (fun (s : Sim_agent.stats) -> (Classify.of_samples s.samples).verdict) runs in
        let count v = List.length (List.filter (( = ) v) votes) in
        let modal =
          match
            List.sort (fun a b -> compare (count b) (count a))
              Classify.[ Appears_stable; Appears_unstable; Inconclusive ]
          with
          | a :: b :: _ when count a = count b -> Classify.Inconclusive
          | a :: _ -> a
          | [] -> assert false
        in
        let mean_n =
          List.fold_left (fun acc (s : Sim_agent.stats) -> acc +. s.time_avg_n) 0.0 runs /. 9.0
        in
        [
          fmt sticky;
          fmt m_bar;
          fmt (Stability.class_threshold ~k:2 ~us:0.1 classes ~piece:0);
          verdict_cell verdict;
          Printf.sprintf "%s %d/9" (Classify.verdict_to_string modal) (count modal);
          fmt mean_n;
        ])
      [ 0.05; 0.2; 0.45; 0.8; 1.5 ]
  in
  Report.table
    ~header:
      [ "sticky rate"; "m_bar"; "threshold"; "heuristic"; "simulated (modal of 9)"; "mean N" ]
    rows;
  Report.subsection "per-class behaviour at sticky rate = 0.8";
  let s = simulate ~seed:182 (mix 0.8) in
  Report.table
    ~header:[ "class"; "mean population"; "mean sojourn" ]
    [
      [ "impatient"; fmt s.class_mean_n.(0); fmt s.class_mean_sojourn.(0) ];
      [ "sticky"; fmt s.class_mean_n.(1); fmt s.class_mean_sojourn.(1) ];
    ];
  print_endline
    "(the heuristic reduces exactly to Theorem 1 for a single class; a test\n\
     checks that identity)"

(* ------------------------------------------------------------------ *)

let e19 () =
  Report.banner "E19  Dwell-distribution insensitivity, exactly (conclusion's conjecture)";
  print_endline
    "The paper assumes Exp(gamma) peer-seed dwell and conjectures the\n\
     results hold for general laws.  Replacing Exp by Erlang-m of the same\n\
     mean keeps the chain Markov (method of stages), so the truncated\n\
     stationary machinery applies exactly.  K=2, U_s=0.8, mu=1, gamma=2,\n\
     lambda = 0.5.";
  let p = Params.make ~k:2 ~us:0.8 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.5) ] in
  let rows =
    List.map
      (fun m ->
        let chain = Truncated.build ~stages:m p ~n_max:16 in
        let pi = Truncated.stationary chain in
        [
          string_of_int m;
          string_of_int (Truncated.state_count chain);
          fmt (Truncated.mean_population chain pi);
          fmt (Truncated.mean_type_count chain pi (PS.full ~k:2));
          fmt (Truncated.probability_empty chain pi);
        ])
      [ 1; 2; 3 ]
  in
  Report.table
    ~header:[ "Erlang stages m"; "states"; "exact E[N]"; "exact E[seeds]"; "P(empty)" ]
    rows;
  print_endline
    "(E[seeds] = lambda/gamma = 0.25 exactly for every m — Little's law is\n\
     distribution-free; E[N] moves by under 1%.  m = 1 is the Exp-dwell\n\
     chain itself, whose every row the test \"rows match\n\
     Rate.transitions\" checks.)";
  Report.subsection "blow-up toward the boundary, by dwell shape (Example 1, threshold 1)";
  let rows =
    List.map
      (fun lambda0 ->
        let p1 = Scenario.example1 ~lambda0 ~us:0.5 ~mu:1.0 ~gamma:2.0 in
        let en stages =
          let chain = Truncated.build ~stages p1 ~n_max:60 in
          Truncated.mean_population chain (Truncated.stationary ~tol:1e-9 chain)
        in
        [ fmt lambda0; fmt (en 1); fmt (en 2) ])
      [ 0.4; 0.6; 0.75 ]
  in
  Report.table ~header:[ "lambda0"; "E[N], Exp dwell"; "E[N], Erlang-2 dwell" ] rows;
  print_endline
    "(the divergence happens at the same boundary for both laws — the\n\
     stability region, not just the means, is insensitive)"

(* ------------------------------------------------------------------ *)

let e20 () =
  Report.banner "E20  Degraded operation: seed outages and the onset of the syndrome";
  print_endline
    "The fixed seed follows an alternating renewal outage process with a\n\
     20-time-unit cycle; duty = mean_up / cycle.  Theorem 1 evaluated at the\n\
     effective rate U_s x duty predicts each verdict; the fault-injected\n\
     simulator votes with 6 replications per duty cycle.  With lambda = 0.6,\n\
     U_s = 1, gamma = inf the boundary sits at duty = 0.6.";
  let p = Scenario.flash_crowd ~k:3 ~lambda:0.6 ~us:1.0 ~mu:1.0 ~gamma:infinity in
  let reps = 6 and horizon = 1200.0 and cycle = 20.0 in
  let rows =
    List.map
      (fun duty ->
        let faults =
          if duty >= 1.0 then Faults.none
          else Faults.make ~outage:(duty *. cycle, (1.0 -. duty) *. cycle) ()
        in
        let config = { (Sim_markov.default_config p) with faults } in
        let results, _ =
          Runner.run_map ~master_seed:(2000 + int_of_float (duty *. 100.0)) ~replications:reps
            (fun ~rng ~index:_ ->
              let stats, _ = Sim_markov.run ~rng config ~horizon in
              ( (Classify.of_samples stats.samples).verdict,
                stats.time_avg_n,
                stats.outage_time /. stats.final_time ))
        in
        let results = Array.to_list results |> List.filter_map Fun.id in
        let stable =
          List.length (List.filter (fun (v, _, _) -> v = Classify.Appears_stable) results)
        in
        let mean f = List.fold_left (fun a r -> a +. f r) 0.0 results /. float_of_int reps in
        let theory = Stability.classify_effective p ~uptime_fraction:duty in
        [
          fmt duty;
          verdict_cell theory;
          Printf.sprintf "%d/%d stable" stable reps;
          fmt (mean (fun (_, n, _) -> n));
          fmt (mean (fun (_, _, o) -> o));
        ])
      [ 1.0; 0.85; 0.7; 0.5; 0.3 ]
  in
  Report.table
    ~header:[ "duty cycle"; "Theorem 1 @ eff U_s"; "simulated"; "mean N"; "down fraction" ]
    rows;
  print_endline
    "(the simulated majority flips from stable to unstable where the\n\
     effective-U_s verdict crosses the boundary at duty = 0.6: seed\n\
     downtime alone is enough to trigger the missing piece syndrome)"

(* ------------------------------------------------------------------ *)

let a1 () =
  Report.banner "A1  Ablation: robustness of the empirical stability classifier";
  print_endline
    "The simulation-based verdicts behind E1-E8 fit the growth of N_t over\n\
     the second half of the run.  This ablation re-classifies the same four\n\
     ground-truth configurations while varying horizon and seed.";
  let configs =
    [
      ("stable, wide margin", Scenario.flash_crowd ~k:3 ~lambda:0.6 ~us:1.0 ~mu:1.0 ~gamma:2.0);
      ("stable, 20% margin", Scenario.flash_crowd ~k:3 ~lambda:1.6 ~us:1.0 ~mu:1.0 ~gamma:2.0);
      ("transient, 25% over", Scenario.flash_crowd ~k:3 ~lambda:1.0 ~us:0.4 ~mu:1.0 ~gamma:infinity);
      ("transient, wide", Scenario.flash_crowd ~k:3 ~lambda:2.0 ~us:0.3 ~mu:1.0 ~gamma:infinity);
    ]
  in
  let rows =
    List.map
      (fun (label, p) ->
        let truth = Stability.classify p in
        let agree horizon =
          let votes =
            List.map
              (fun seed -> (Classify.run ~horizon ~seed p).verdict)
              [ 1601; 1602; 1603; 1604; 1605 ]
          in
          let matches =
            List.length
              (List.filter
                 (fun v ->
                   match (truth, v) with
                   | Stability.Positive_recurrent, Classify.Appears_stable -> true
                   | Stability.Transient, Classify.Appears_unstable -> true
                   | _ -> false)
                 votes)
          in
          Printf.sprintf "%d/5" matches
        in
        [ label; verdict_cell truth; agree 800.0; agree 1600.0; agree 3200.0 ])
      configs
  in
  Report.table ~header:[ "configuration"; "truth"; "T=800"; "T=1600"; "T=3200" ] rows;
  print_endline "(agreement should improve with the horizon; misses cluster near the boundary)"

let all : (string * (unit -> unit)) list =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7);
    ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13);
    ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19);
    ("e20", e20); ("a1", a1);
  ]
