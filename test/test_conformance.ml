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

let check_first_jump_law ~(run : runner) ~seed ~reps p initial =
  let state0 = State.of_counts initial in
  let transitions = Rate.transitions p state0 in
  let total_rate = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 transitions in
  (* key the expected distribution by the resulting state fingerprint *)
  let fingerprint st =
    String.concat ";"
      (List.map (fun (c, n) -> Printf.sprintf "%d:%d" (PS.to_index c) n) (State.to_alist st))
  in
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (tr, rate) ->
      let next = State.copy state0 in
      Rate.apply p next tr;
      let key = fingerprint next in
      Hashtbl.replace expected key
        (rate /. total_rate +. Option.value (Hashtbl.find_opt expected key) ~default:0.0))
    transitions;
  (* simulate the first jump many times *)
  let observed = Hashtbl.create 16 in
  let holding = ref 0.0 in
  let rng = Rng.of_seed seed in
  for _ = 1 to reps do
    (* run until the first state change using the observer *)
    let first = ref None in
    let observer ~time ~state =
      if Option.is_none !first then first := Some (time, fingerprint state)
    in
    (* a long-enough horizon that a change almost surely happens *)
    run ~observer ~rng p initial ~horizon:(60.0 /. total_rate);
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

(* ---- 4. coded engines: agent vs type-level vs exact ---- *)

let test_coded_engines_agree () =
  let cfg =
    { Coded_chain.q = 2; k = 2; us = 2.0; mu = 1.0; gamma = infinity;
      arrivals = [ (0, 0.5); (1, 0.5) ] }
  in
  let t = Coded_chain.create cfg in
  let exact = (Coded_chain.stationary t ~n_max:25).mean_n in
  let type_level =
    (Coded_chain.simulate ~rng:(Rng.of_seed 6) t ~init:(Coded_chain.empty_state t)
       ~horizon:25_000.0)
      .time_avg_n
  in
  let g = { Stability.Coded.q = 2; k = 2; us = 2.0; mu = 1.0; gamma = infinity;
            lambda0 = 0.5; lambda1 = 0.5 } in
  let agent = (Sim_coded.run_seeded ~seed:7 (Sim_coded.of_gift g) ~horizon:25_000.0).time_avg_n in
  Alcotest.(check bool)
    (Printf.sprintf "type-level %.3f vs exact %.3f" type_level exact)
    true
    (Float.abs (type_level -. exact) /. exact < 0.08);
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
          Alcotest.test_case "four engines, one mean" `Slow test_four_engines_agree;
          Alcotest.test_case "fluid = generator drift" `Quick test_fluid_equals_generator_everywhere;
          Alcotest.test_case "coded engines agree" `Slow test_coded_engines_agree;
          Alcotest.test_case "Little's law" `Slow test_littles_law_everywhere;
        ] );
    ]
