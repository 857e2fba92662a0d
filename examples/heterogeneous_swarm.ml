(* Heterogeneous peers: fast/slow classes sharing one swarm.

   The paper's conclusion singles out heterogeneous link speeds as the
   natural next scenario.  The missing-piece calculus generalises: a fresh
   peer seed's expected one-club service is mu_c/gamma_c for its own class
   c, so the seed branching factor is the arrival-mix average
   m_bar = sum_c p_c mu_c/gamma_c and the system tolerates any load once
   m_bar >= 1.  A small population of patient ("sticky") peers can
   therefore carry an arbitrarily large crowd of impatient ones. *)

open P2p_core
module PS = P2p_pieceset.Pieceset

let () =
  Report.banner "Heterogeneous swarm: impatient crowd + sticky helpers";
  let mix ~impatient ~sticky =
    [
      { Params.label = "impatient"; mu = 1.0; gamma = infinity;
        arrivals = [ (PS.empty, impatient) ] };
      { Params.label = "sticky"; mu = 1.0; gamma = 0.4; arrivals = [ (PS.empty, sticky) ] };
    ]
  in
  let simulate ~seed classes =
    fst (Sim_agent.run_seeded ~seed (Sim_agent.class_config ~k:3 ~us:0.1 classes) ~horizon:2500.0)
  in
  Report.subsection "sweep the sticky share at a fixed heavy load (total ~ 2)";
  let rows =
    List.map
      (fun share ->
        let classes = mix ~impatient:(2.0 *. (1.0 -. share)) ~sticky:(2.0 *. share) in
        let m_bar = Stability.mean_seed_offspring classes ~piece:0 in
        let s = simulate ~seed:41 classes in
        let r = Classify.of_samples s.samples in
        [
          Report.fmt_float share;
          Report.fmt_float m_bar;
          Stability.verdict_to_string (Stability.classify_classes ~k:3 ~us:0.1 classes);
          Classify.verdict_to_string r.verdict;
          Report.fmt_float s.time_avg_n;
        ])
      [ 0.05; 0.2; 0.35; 0.6; 0.8 ]
  in
  Report.table
    ~header:[ "sticky share"; "m_bar"; "heuristic"; "simulated"; "mean N" ]
    rows;
  print_endline
    "\nm_bar crossing 1 is the heterogeneous one-more-piece corollary: once\n\
     the average departing seed has served one club member, any load is\n\
     stable.  (Just above the crossing the system is stable but mixes\n\
     slowly, like any near-critical branching system.)";

  Report.subsection "who does the work (sticky share 0.6)";
  let s = simulate ~seed:42 (mix ~impatient:0.8 ~sticky:1.2) in
  Report.table
    ~header:[ "class"; "mean population"; "mean sojourn" ]
    [
      [ "impatient"; Report.fmt_float s.class_mean_n.(0); Report.fmt_float s.class_mean_sojourn.(0) ];
      [ "sticky"; Report.fmt_float s.class_mean_n.(1); Report.fmt_float s.class_mean_sojourn.(1) ];
    ];

  Report.subsection "single class sanity: heuristic == Theorem 1";
  let p = Scenario.flash_crowd ~k:3 ~lambda:1.2 ~us:0.5 ~mu:1.0 ~gamma:2.0 in
  Report.kv
    [
      ("Theorem 1", Stability.verdict_to_string (Stability.classify p));
      ( "heuristic on the single-class embedding",
        Stability.verdict_to_string
          (Stability.classify_classes ~k:p.k ~us:p.us (Params.classes p)) );
    ];
  exit 0
