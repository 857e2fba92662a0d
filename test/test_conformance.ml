(* Cross-engine conformance: the simulators, the generator, the fluid
   limit, and the exact stationary solver must all describe the same
   Markov chain.

   These tests are the repository's strongest correctness net: they take
   the *same* parameterisation through independent code paths and require
   quantitative agreement. *)

open P2p_core
module PS = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng

(* ---- 1. empirical first-jump law vs the generator row ---- *)

(* From a frozen state, the probability that the first state change is a
   given transition equals rate/total_rate, and the time to it is
   exponential with mean 1/total_rate.  We measure both by running many
   very short simulations from that state and diffing states.  Sim_markov
   races only contacts between different types (DESIGN §18), and
   Sim_agent races every peer's clock on its own, so these two laws are
   what pins each of them to Eq. (1).  [run] is the backend under test. *)
type runner =
  observer:(time:float -> state:State.t -> unit) ->
  rng:Rng.t ->
  Params.t ->
  (PS.t * int) list ->
  horizon:float ->
  unit

let markov : runner =
 fun ~observer ~rng p initial ~horizon ->
  ignore (Sim_markov.run ~observer ~rng { (Sim_markov.default_config p) with initial } ~horizon)

let agent : runner =
 fun ~observer ~rng p initial ~horizon ->
  ignore (Sim_agent.run ~observer ~rng { (Sim_agent.default_config p) with initial } ~horizon)

(* Two peer classes whose pooled arrival streams are [p]'s, split evenly.
   The first class runs at [p.mu] and holds every initial peer; the
   second, ten times faster, only arrives.  Every peer's clock ticks at
   the fastest rate and a slow peer's tick is accepted with probability
   [p.mu / fast], so until a fast peer arrives the first jump follows
   [Rate.transitions p]; without the acceptance coin the slow peers
   would contact ten times too often. *)
let agent_two_classes : runner =
 fun ~observer ~rng p initial ~horizon ->
  let half = List.map (fun (c, r) -> (c, r /. 2.0)) (Array.to_list p.arrivals) in
  let classes =
    [
      { Params.label = "slow"; mu = p.mu; gamma = p.gamma; arrivals = half };
      { Params.label = "fast"; mu = 10.0 *. p.mu; gamma = 5.0; arrivals = half };
    ]
  in
  let config = { (Sim_agent.class_config ~k:p.k ~us:p.us classes) with initial } in
  ignore (Sim_agent.run ~observer ~rng config ~horizon)

(* The first-jump and holding-time laws from one frozen state, given
   the generator row's jump probabilities keyed by the fingerprint of the
   state each move leads to.  [first_jump ~rng ~horizon ~record] runs the
   backend from the frozen state, calling [record ~time key] after every
   state change, where [key ()] fingerprints the state. *)
let check_jumps ~seed ~reps ~total_rate expected first_jump =
  (* simulate the first jump many times *)
  let observed = Hashtbl.create 16 in
  let holding = ref 0.0 in
  let rng = Rng.of_seed seed in
  for _ = 1 to reps do
    (* run until the first state change using the observer *)
    let first = ref None in
    let record ~time key = if Option.is_none !first then first := Some (time, key ()) in
    (* a long-enough horizon that a change almost surely happens *)
    first_jump ~rng ~horizon:(60.0 /. total_rate) ~record;
    match !first with
    | Some (time, key) ->
        holding := !holding +. time;
        Hashtbl.replace observed key
          (1 + Option.value (Hashtbl.find_opt observed key) ~default:0)
    | None -> ()
  done;
  let seen = Hashtbl.fold (fun _ c acc -> acc + c) observed 0 in
  Alcotest.(check bool) "almost all runs jumped" true (seen > reps * 99 / 100);
  Hashtbl.iter
    (fun key prob ->
      let freq =
        float_of_int (Option.value (Hashtbl.find_opt observed key) ~default:0)
        /. float_of_int seen
      in
      Alcotest.(check bool)
        (Printf.sprintf "jump to %s: theory %.4f empirical %.4f" key prob freq)
        true
        (Float.abs (prob -. freq) < 0.01))
    expected;
  Alcotest.(check int) "no jump outside the generator row" 0
    (Hashtbl.fold (fun key _ acc -> if Hashtbl.mem expected key then acc else acc + 1) observed 0);
  (* Exp(total_rate) holding time: its standard deviation equals its
     mean, so the sample mean has sigma = (1/total_rate)/sqrt(seen). *)
  let mean = !holding /. float_of_int seen and theory = 1.0 /. total_rate in
  let sigma = theory /. sqrt (float_of_int seen) in
  Alcotest.(check bool)
    (Printf.sprintf "mean holding time %.5f vs 1/q %.5f (4 sigma = %.5f)" mean theory
       (4.0 *. sigma))
    true
    (Float.abs (mean -. theory) < 4.0 *. sigma)

(* The jump probabilities of a generator row of unit moves, keyed by
   [fingerprint] of the state each move leads to. *)
let row_law moves ~apply ~fingerprint =
  let total_rate = List.fold_left (fun acc (_, _, r) -> acc +. r) 0.0 moves in
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (from_, to_, rate) ->
      let key = fingerprint (apply ~from_ ~to_) in
      Hashtbl.replace expected key
        (rate /. total_rate +. Option.value (Hashtbl.find_opt expected key) ~default:0.0))
    moves;
  (total_rate, expected)

let check_first_jump_law ~(run : runner) ~seed ~reps p initial =
  let state0 = State.of_counts initial in
  let fingerprint st =
    String.concat ";"
      (List.map (fun (c, n) -> Printf.sprintf "%d:%d" (PS.to_index c) n) (State.to_alist st))
  in
  let apply ~from_ ~to_ =
    let next = State.copy state0 in
    State.apply_move next ~from_ ~to_;
    next
  in
  let total_rate, expected = row_law (Rate.transitions p state0) ~apply ~fingerprint in
  check_jumps ~seed ~reps ~total_rate expected (fun ~rng ~horizon ~record ->
      run ~observer:(fun ~time ~state -> record ~time (fun () -> fingerprint state)) ~rng p initial
        ~horizon)

let test_first_jump_distribution run () =
  let p =
    Params.make ~k:2 ~us:0.7 ~mu:1.0 ~gamma:2.0
      ~arrivals:[ (PS.empty, 0.6); (PS.singleton 0, 0.4) ]
  in
  check_first_jump_law ~run ~seed:1 ~reps:60_000 p
    [ (PS.empty, 4); (PS.singleton 0, 2); (PS.singleton 1, 1); (PS.full ~k:2, 2) ]

(* A one-club-heavy state: distinct-type pairs are under a quarter of all
   ordered pairs, so the pair sampler's rejection often gives up and the
   exact scan runs; two full peers sit out of the seed's downloaders, and
   three empty peers are uploaders that can never help. *)
let test_first_jump_one_club run () =
  let p =
    Params.make ~k:3 ~us:0.7 ~mu:1.0 ~gamma:2.0
      ~arrivals:[ (PS.empty, 0.5); (PS.singleton 2, 0.3) ]
  in
  check_first_jump_law ~run ~seed:3 ~reps:40_000 p
    [ (PS.of_list [ 0; 1 ], 40); (PS.empty, 3); (PS.singleton 2, 1); (PS.full ~k:3, 2) ]

(* A slow class (μ = 0.3) holding every initial peer beside a fast one
   (μ = 3) that only arrives: the first jump is the generator row at
   μ = 0.3. *)
let test_first_jump_two_classes () =
  let p =
    Params.make ~k:2 ~us:0.7 ~mu:0.3 ~gamma:2.0
      ~arrivals:[ (PS.empty, 0.6); (PS.singleton 0, 0.4) ]
  in
  check_first_jump_law ~run:agent_two_classes ~seed:9 ~reps:40_000 p
    [ (PS.empty, 4); (PS.singleton 0, 2); (PS.singleton 1, 1); (PS.full ~k:2, 2) ]

(* ---- 1b. the coded swarm's first-jump law vs Coded_chain ---- *)

(* The same laws for the subspace content on the per-peer driver, from a
   frozen state of subspace types given as lattice ids.  A subspace maps
   to its id through the span of its basis, coded as base-q digits. *)
module Lattice = P2p_coding.Lattice
module Subspace = P2p_coding.Subspace

let check_coded_first_jump_law ~seed ~reps (cfg : Coded_chain.config) initial =
  let chain = Coded_chain.create cfg in
  let lat = Coded_chain.lattice chain in
  let q = cfg.q and k = cfg.k in
  let field = P2p_gf.Field.gf q in
  let encode v = Array.fold_right (fun digit acc -> (acc * q) + digit) v 0 in
  let decode code =
    let v = Array.make k 0 and c = ref code in
    for i = 0 to k - 1 do
      v.(i) <- !c mod q;
      c := !c / q
    done;
    v
  in
  let id_of s = Lattice.dim_of_vector_span lat (Array.map encode (Subspace.basis s)) in
  let subspace_of id =
    Subspace.of_vectors field ~k (List.map decode (Array.to_list (Lattice.members lat id)))
  in
  let fingerprint counts =
    String.concat ";"
      (List.filter_map
         (fun id -> if counts.(id) > 0 then Some (Printf.sprintf "%d:%d" id counts.(id)) else None)
         (List.init (Lattice.count lat) Fun.id))
  in
  let state0 = Coded_chain.state_of chain initial in
  let apply ~from_ ~to_ =
    let next = Array.make (Lattice.count lat) 0 in
    Array.blit state0 0 next 0 (Array.length state0);
    if from_ >= 0 then next.(from_) <- next.(from_) - 1;
    if to_ >= 0 then next.(to_) <- next.(to_) + 1;
    next
  in
  let total_rate, expected = row_law (Coded_chain.transitions chain state0) ~apply ~fingerprint in
  let sim =
    { Sim_coded.q; k; us = cfg.us; mu = cfg.mu; gamma = cfg.gamma; arrivals = cfg.arrivals;
      smart_exchange = false; faults = Faults.none }
  in
  let config =
    { (Sim_coded.peers_config sim) with
      initial = List.map (fun (id, n) -> (Sim_coded.Span (subspace_of id), n)) initial }
  in
  check_jumps ~seed ~reps ~total_rate expected (fun ~rng ~horizon ~record ->
      let observer ~time swarm =
        record ~time (fun () ->
            let counts = Array.make (Lattice.count lat) 0 in
            Peers.iter swarm (fun s -> counts.(id_of s) <- counts.(id_of s) + 1);
            fingerprint counts)
      in
      ignore (Peers.run ~observer ~rng config (Sim_coded.content sim) ~horizon))

(* q = 2, K = 3 at γ = 2: a club of six peers in the hyperplane
   H = <e0, e1> beside two dwelling seeds, one empty peer, a line inside
   H and a line outside it.  Club uploads to the club are useless, seeds
   and the fixed seed lift H to the full space, and gifts of two vectors
   can arrive decoded. *)
let test_coded_first_jump_club () =
  let cfg =
    { Coded_chain.q = 2; k = 3; us = 0.5; mu = 1.0; gamma = 2.0;
      arrivals = [ (0, 0.6); (1, 0.3); (3, 0.1) ] }
  in
  let lat = Coded_chain.lattice (Coded_chain.create cfg) in
  let span codes = Lattice.dim_of_vector_span lat codes in
  check_coded_first_jump_law ~seed:11 ~reps:40_000 cfg
    [ (span [| 1; 2 |], 6); (Lattice.full lat, 2); (Lattice.zero lat, 1); (span [| 1 |], 1);
      (span [| 4 |], 1) ]

(* q = 3, K = 2 at γ = ∞: empty peers beside three distinct lines, and
   gifts of two vectors that decode on arrival (a self-loop: the peer
   leaves at once). *)
let test_coded_first_jump_mixed () =
  let cfg =
    { Coded_chain.q = 3; k = 2; us = 0.7; mu = 1.0; gamma = infinity;
      arrivals = [ (0, 0.5); (1, 0.3); (2, 0.2) ] }
  in
  let lat = Coded_chain.lattice (Coded_chain.create cfg) in
  let span codes = Lattice.dim_of_vector_span lat codes in
  check_coded_first_jump_law ~seed:12 ~reps:40_000 cfg
    [ (Lattice.zero lat, 2); (span [| 1 |], 3); (span [| 3 |], 2); (span [| 4 |], 1) ]

(* ---- 2. the exact chain and both simulators, one stationary mean ---- *)

let test_four_engines_agree () =
  let p = Params.make ~k:2 ~us:0.9 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.5) ] in
  (* exact *)
  let chain = Truncated.build p ~n_max:22 in
  let exact = Truncated.mean_population chain (Truncated.stationary chain) in
  (* aggregate simulation *)
  let markov =
    (fst (Sim_markov.run_seeded ~seed:2 (Sim_markov.default_config p) ~horizon:25_000.0))
      .time_avg_n
  in
  (* per-peer simulation *)
  let agent =
    (fst (Sim_agent.run_seeded ~seed:3 (Sim_agent.default_config p) ~horizon:25_000.0))
      .time_avg_n
  in
  let check name value =
    Alcotest.(check bool)
      (Printf.sprintf "%s %.3f vs exact %.3f" name value exact)
      true
      (Float.abs (value -. exact) /. exact < 0.08)
  in
  check "sim_markov" markov;
  check "sim_agent" agent

(* ---- 3. fluid drift equals generator mean drift on random states ---- *)

let test_fluid_equals_generator_everywhere () =
  let rng = Rng.of_seed 5 in
  let p =
    Params.make ~k:3 ~us:0.5 ~mu:1.3 ~gamma:1.8
      ~arrivals:[ (PS.empty, 0.7); (PS.of_list [ 0; 1 ], 0.2) ]
  in
  for _ = 1 to 40 do
    let entries =
      List.filter_map
        (fun c ->
          let count = Rng.int_below rng 6 in
          if count > 0 then Some (PS.of_index c, count) else None)
        (List.init 8 (fun i -> i))
    in
    let s = State.of_counts entries in
    let x = Fluid.of_state ~k:3 s in
    let dx = Fluid.derivative p x in
    List.iter
      (fun c ->
        let f st = float_of_int (State.count st (PS.of_index c)) in
        let generator_drift = Lyapunov.drift p ~f s in
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "type %d" c)
          generator_drift dx.(c))
      (List.init 8 (fun i -> i))
  done

(* ---- 4. coded engines: the coded simulator vs the exact chain ---- *)

let test_coded_engines_agree () =
  let cfg =
    { Coded_chain.q = 2; k = 2; us = 2.0; mu = 1.0; gamma = infinity;
      arrivals = [ (0, 0.5); (1, 0.5) ] }
  in
  let exact = (Coded_chain.stationary (Coded_chain.create cfg) ~n_max:25).mean_n in
  let g = { Stability.Coded.q = 2; k = 2; us = 2.0; mu = 1.0; gamma = infinity;
            lambda0 = 0.5; lambda1 = 0.5 } in
  let agent = (Sim_coded.run_seeded ~seed:7 (Sim_coded.of_gift g) ~horizon:25_000.0).time_avg_n in
  Alcotest.(check bool)
    (Printf.sprintf "agent %.3f vs exact %.3f" agent exact)
    true
    (Float.abs (agent -. exact) /. exact < 0.08)

(* ---- 5. Little's law across simulators ---- *)

let test_littles_law_everywhere () =
  let p = Params.make ~k:3 ~us:0.8 ~mu:1.0 ~gamma:2.0 ~arrivals:[ (PS.empty, 0.6) ] in
  let stats, _ = Sim_agent.run_seeded ~seed:8 (Sim_agent.default_config p) ~horizon:20_000.0 in
  let lambda = Params.lambda_total p in
  Alcotest.(check bool)
    (Printf.sprintf "N = lambda T: %.3f vs %.3f" stats.time_avg_n
       (lambda *. stats.mean_sojourn))
    true
    (Float.abs (stats.time_avg_n -. (lambda *. stats.mean_sojourn))
     /. Float.max 1.0 stats.time_avg_n
    < 0.08)

(* Mostly peer seeds and a strong seed: the fixed seed's contacts land on
   a full peer three times in four, so its raced rate U_s·(n − x_F)/n is
   a quarter of U_s, and any slip in that exclusion moves both laws. *)
let test_first_jump_seed_heavy run () =
  let p = Params.make ~k:2 ~us:2.0 ~mu:1.0 ~gamma:0.5 ~arrivals:[ (PS.empty, 0.5) ] in
  check_first_jump_law ~run ~seed:5 ~reps:40_000 p
    [ (PS.full ~k:2, 6); (PS.empty, 1); (PS.singleton 0, 1) ]

let () =
  Alcotest.run "conformance"
    [
      ( "conformance",
        [
          Alcotest.test_case "first-jump law = generator row" `Slow
            (test_first_jump_distribution markov);
          Alcotest.test_case "first-jump law, one-club-heavy state" `Slow
            (test_first_jump_one_club markov);
          Alcotest.test_case "first-jump law, seed-heavy state" `Slow
            (test_first_jump_seed_heavy markov);
          Alcotest.test_case "agent first-jump law = generator row" `Slow
            (test_first_jump_distribution agent);
          Alcotest.test_case "agent first-jump law, one-club-heavy" `Slow
            (test_first_jump_one_club agent);
          Alcotest.test_case "agent first-jump law, seed-heavy" `Slow
            (test_first_jump_seed_heavy agent);
          Alcotest.test_case "agent first-jump law, two classes" `Slow
            test_first_jump_two_classes;
          Alcotest.test_case "four engines, one mean" `Slow test_four_engines_agree;
          Alcotest.test_case "fluid = generator drift" `Quick test_fluid_equals_generator_everywhere;
          Alcotest.test_case "coded first-jump law, hyperplane club" `Slow
            test_coded_first_jump_club;
          Alcotest.test_case "coded first-jump law, mixed dimensions" `Slow
            test_coded_first_jump_mixed;
          Alcotest.test_case "coded engines agree" `Slow test_coded_engines_agree;
          Alcotest.test_case "Little's law" `Slow test_littles_law_everywhere;
        ] );
    ]
