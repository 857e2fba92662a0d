(* The generic stationary-distribution solver, against closed forms, and
   the truncated state space the exact chains share. *)

open P2p_core
module PS = P2p_pieceset.Pieceset

let closef ?(tol = 1e-8) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.8g got %.8g" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let test_two_state_chain () =
  (* 0 -> 1 at rate a, 1 -> 0 at rate b: pi = (b, a)/(a+b). *)
  let a = 2.0 and b = 3.0 in
  let s = { Balance.targets = [| [| 1 |]; [| 0 |] |]; rates = [| [| a |]; [| b |] |] } in
  let pi = Balance.solve s ~sweep_key:[| 0; 1 |] in
  closef "pi0" (b /. (a +. b)) pi.(0);
  closef "pi1" (a /. (a +. b)) pi.(1)

let test_birth_death_geometric () =
  (* truncated M/M/1: birth l, death m; pi(i) proportional to (l/m)^i. *)
  let l = 0.5 and m = 1.0 in
  let n = 30 in
  let targets =
    Array.init (n + 1) (fun i ->
        if i = 0 then [| 1 |] else if i = n then [| n - 1 |] else [| i + 1; i - 1 |])
  in
  let rates =
    Array.init (n + 1) (fun i ->
        if i = 0 then [| l |] else if i = n then [| m |] else [| l; m |])
  in
  let pi = Balance.solve { Balance.targets; rates } ~sweep_key:(Array.init (n + 1) Fun.id) in
  let rho = l /. m in
  (* compare ratios to avoid dealing with the truncated normaliser *)
  for i = 0 to 5 do
    closef (Printf.sprintf "ratio at %d" i) rho (pi.(i + 1) /. pi.(i))
  done

let test_three_state_cycle () =
  (* cyclic 0->1->2->0 with unit rates: uniform stationary law. *)
  let s =
    { Balance.targets = [| [| 1 |]; [| 2 |]; [| 0 |] |];
      rates = [| [| 1.0 |]; [| 1.0 |]; [| 1.0 |] |] }
  in
  let pi = Balance.solve s ~sweep_key:[| 0; 1; 2 |] in
  Array.iter (fun p -> closef "uniform" (1.0 /. 3.0) p) pi

let test_asymmetric_cycle () =
  (* 0->1 rate 1, 1->2 rate 2, 2->0 rate 4: pi proportional to 1/out. *)
  let s =
    { Balance.targets = [| [| 1 |]; [| 2 |]; [| 0 |] |];
      rates = [| [| 1.0 |]; [| 2.0 |]; [| 4.0 |] |] }
  in
  let pi = Balance.solve s ~sweep_key:[| 0; 1; 2 |] in
  let z = 1.0 +. 0.5 +. 0.25 in
  closef "pi0" (1.0 /. z) pi.(0);
  closef "pi1" (0.5 /. z) pi.(1);
  closef "pi2" (0.25 /. z) pi.(2)

let test_shape_mismatch () =
  Alcotest.(check bool) "shape guard" true
    (try
       ignore
         (Balance.solve
            { Balance.targets = [| [| 0 |] |]; rates = [| [| 1.0; 2.0 |] |] }
            ~sweep_key:[| 0 |]);
       false
     with Invalid_argument _ -> true)

let test_sum_to_one_and_nonnegative () =
  let rng = P2p_prng.Rng.of_seed 1 in
  for _ = 1 to 20 do
    (* random strongly-connected-ish chain: ring plus random chords *)
    let n = 5 + P2p_prng.Rng.int_below rng 10 in
    let targets =
      Array.init n (fun i ->
          let chord = P2p_prng.Rng.int_below rng n in
          if chord = i then [| (i + 1) mod n |] else [| (i + 1) mod n; chord |])
    in
    let rates =
      Array.map
        (Array.map (fun _ -> 0.1 +. P2p_prng.Rng.float rng))
        targets
    in
    let pi = Balance.solve { Balance.targets; rates } ~sweep_key:(Array.init n Fun.id) in
    closef "normalised" 1.0 (Array.fold_left ( +. ) 0.0 pi);
    Array.iter (fun p -> Alcotest.(check bool) "nonnegative" true (p >= 0.0)) pi
  done

let test_balance_equations_hold () =
  (* verify pi Q = 0 componentwise on a random chain *)
  let rng = P2p_prng.Rng.of_seed 2 in
  let n = 8 in
  let targets =
    Array.init n (fun i -> [| (i + 1) mod n; (i + 3) mod n |])
  in
  let rates = Array.map (Array.map (fun _ -> 0.2 +. P2p_prng.Rng.float rng)) targets in
  let pi = Balance.solve { Balance.targets; rates } ~sweep_key:(Array.init n Fun.id) in
  let inflow = Array.make n 0.0 in
  let outflow = Array.make n 0.0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun e j ->
          inflow.(j) <- inflow.(j) +. (pi.(i) *. rates.(i).(e));
          outflow.(i) <- outflow.(i) +. (pi.(i) *. rates.(i).(e)))
        row)
    targets;
  for i = 0 to n - 1 do
    closef ~tol:1e-7 (Printf.sprintf "balance at %d" i) outflow.(i) inflow.(i)
  done

(* Every vector of [dims] counts with total <= n_max, in lexicographic
   order, by brute force over [0, n_max]^dims. *)
let reference_space ~dims ~n_max =
  let rec go pos =
    if pos = dims then [ [] ]
    else
      List.concat_map
        (fun v -> List.map (fun rest -> v :: rest) (go (pos + 1)))
        (List.init (n_max + 1) Fun.id)
  in
  List.filter_map
    (fun l -> if List.fold_left ( + ) 0 l <= n_max then Some (Array.of_list l) else None)
    (go 0)

let test_rank_bijection () =
  List.iter
    (fun (dims, n_max) ->
      let name = Printf.sprintf "dims %d, n_max %d" dims n_max in
      let sp = Balance.space ~who:"test" ~dims ~n_max in
      let expected = Array.of_list (reference_space ~dims ~n_max) in
      Alcotest.(check int) (name ^ ": size") (Array.length expected) (Balance.size sp);
      let seen = ref 0 in
      Balance.iter sp (fun i x n ->
          Alcotest.(check int) (name ^ ": enumeration index") !seen i;
          Alcotest.(check (array int)) (name ^ ": enumeration order") expected.(i) x;
          Alcotest.(check int) (name ^ ": rank") i (Balance.rank sp x);
          Alcotest.(check int) (name ^ ": population") (Array.fold_left ( + ) 0 x) n;
          incr seen);
      Alcotest.(check int) (name ^ ": states visited") (Array.length expected) !seen;
      let outside x =
        try
          ignore (Balance.rank sp x);
          false
        with Invalid_argument _ -> true
      in
      Alcotest.(check bool) (name ^ ": over the cap") true
        (outside (Array.init dims (fun i -> if i = dims - 1 then n_max + 1 else 0)));
      Alcotest.(check bool) (name ^ ": negative count") true
        (outside (Array.init dims (fun i -> if i = 0 then -1 else 0))))
    [ (1, 1); (1, 7); (2, 1); (3, 1); (2, 6); (3, 4); (5, 3); (8, 2) ]

(* The shared builder's rows against the generic generator: for every
   state, the moves of Rate.transitions applied by State.apply_move,
   ranked back into the space (an arrival at the cap is rejected), must
   give the same (target, rate) multiset. *)
let test_rows_match_transitions () =
  let check name (p : Params.t) ~n_max =
    let chain = Truncated.build p ~n_max in
    let sp = Truncated.space chain and rows = Truncated.rows chain in
    Balance.iter sp (fun i x _ ->
        let st = State.of_counts (List.init (Array.length x) (fun c -> (PS.of_index c, x.(c)))) in
        let expected =
          List.filter_map
            (fun (from_, to_, rate) ->
              if from_ < 0 && State.n st = n_max then None
              else begin
                let next = State.copy st in
                State.apply_move next ~from_ ~to_;
                let y = Array.make (Array.length x) 0 in
                State.iter next (fun c v -> y.(PS.to_index c) <- v);
                Some (Balance.rank sp y, rate)
              end)
            (Rate.transitions p st)
        in
        let actual = Array.to_list (Array.combine rows.targets.(i) rows.rates.(i)) in
        let sorted l = List.sort compare l in
        let where = Printf.sprintf "%s, state %d" name i in
        Alcotest.(check (list int)) (where ^ ": targets")
          (List.map fst (sorted expected)) (List.map fst (sorted actual));
        List.iter2
          (fun (_, a) (_, b) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: rate %.17g vs %.17g" where a b)
              true
              (Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b)))
          (sorted expected) (sorted actual))
  in
  let k2 = PS.full ~k:2 in
  check "K=2 gamma=2"
    (Params.make ~k:2 ~us:0.8 ~mu:1.0 ~gamma:2.0
       ~arrivals:[ (PS.empty, 0.5); (PS.singleton 1, 0.2); (k2, 0.1) ])
    ~n_max:6;
  check "K=2 gamma=inf"
    (Params.make ~k:2 ~us:0.8 ~mu:1.3 ~gamma:infinity
       ~arrivals:[ (PS.empty, 0.5); (PS.singleton 0, 0.3) ])
    ~n_max:6;
  check "K=3 gamma=2"
    (Params.make ~k:3 ~us:0.6 ~mu:1.0 ~gamma:2.0
       ~arrivals:[ (PS.empty, 1.0); (PS.of_list [ 0; 2 ], 0.25) ])
    ~n_max:4

let () =
  Alcotest.run "balance"
    [
      ( "balance",
        [
          Alcotest.test_case "two states" `Quick test_two_state_chain;
          Alcotest.test_case "birth-death geometric" `Quick test_birth_death_geometric;
          Alcotest.test_case "uniform cycle" `Quick test_three_state_cycle;
          Alcotest.test_case "asymmetric cycle" `Quick test_asymmetric_cycle;
          Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch;
          Alcotest.test_case "normalised / nonnegative" `Quick test_sum_to_one_and_nonnegative;
          Alcotest.test_case "balance equations" `Quick test_balance_equations_hold;
          Alcotest.test_case "rank is a bijection in enumeration order" `Quick test_rank_bijection;
          Alcotest.test_case "rows match Rate.transitions" `Quick test_rows_match_transitions;
        ] );
    ]
