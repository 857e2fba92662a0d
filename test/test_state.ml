(* The type-count state vector. *)

module PS = P2p_pieceset.Pieceset
open P2p_core

let test_empty () =
  let s = State.create () in
  Alcotest.(check int) "n" 0 (State.n s);
  Alcotest.(check int) "occupied" 0 (State.occupied s);
  Alcotest.(check int) "count of anything" 0 (State.count s PS.empty)

let test_add_remove () =
  let s = State.create () in
  State.add_peer s PS.empty;
  State.add_peer s PS.empty;
  State.add_peer s (PS.singleton 1);
  Alcotest.(check int) "n" 3 (State.n s);
  Alcotest.(check int) "count empty" 2 (State.count s PS.empty);
  State.remove_peer s PS.empty;
  Alcotest.(check int) "after remove" 1 (State.count s PS.empty);
  State.remove_peer s PS.empty;
  Alcotest.(check int) "zero drops type" 1 (State.occupied s);
  Alcotest.(check bool) "remove from empty raises" true
    (try
       State.remove_peer s PS.empty;
       false
     with Invalid_argument _ -> true)

let test_move () =
  let s = State.of_counts [ (PS.empty, 1) ] in
  State.move_peer s ~from_:PS.empty ~to_:(PS.singleton 0);
  Alcotest.(check int) "n preserved" 1 (State.n s);
  Alcotest.(check int) "target" 1 (State.count s (PS.singleton 0));
  Alcotest.(check int) "source" 0 (State.count s PS.empty)

let test_of_counts () =
  let s = State.of_counts [ (PS.empty, 2); (PS.empty, 3); (PS.singleton 0, 0) ] in
  Alcotest.(check int) "summed duplicates" 5 (State.count s PS.empty);
  Alcotest.(check int) "zero dropped" 1 (State.occupied s);
  Alcotest.(check bool) "negative raises" true
    (try
       ignore (State.of_counts [ (PS.empty, -1) ]);
       false
     with Invalid_argument _ -> true)

let test_copy_isolated () =
  let s = State.of_counts [ (PS.empty, 2) ] in
  let t = State.copy s in
  State.add_peer t PS.empty;
  Alcotest.(check int) "original" 2 (State.n s);
  Alcotest.(check int) "copy" 3 (State.n t)

let test_alist_sorted () =
  let s = State.of_counts [ (PS.singleton 2, 1); (PS.empty, 1); (PS.singleton 0, 1) ] in
  let types = List.map fst (State.to_alist s) in
  Alcotest.(check (list int)) "sorted by bitmask" [ 0; 1; 4 ] (List.map PS.to_index types)

let test_piece_counts () =
  let s = State.of_counts [ (PS.of_list [ 0; 1 ], 2); (PS.singleton 1, 3); (PS.empty, 1) ] in
  Alcotest.(check int) "piece 0 copies" 2 (State.piece_copies s ~k:3 ~piece:0);
  Alcotest.(check int) "piece 1 copies" 5 (State.piece_copies s ~k:3 ~piece:1);
  Alcotest.(check int) "piece 2 copies" 0 (State.piece_copies s ~k:3 ~piece:2);
  Alcotest.(check (array int)) "vector" [| 2; 5; 0 |] (State.piece_count_vector s ~k:3)

let test_subset_helpful_counts () =
  let s =
    State.of_counts [ (PS.empty, 1); (PS.singleton 0, 2); (PS.of_list [ 0; 1 ], 4); (PS.singleton 2, 8) ]
  in
  (* E_S for S = {0,1}: empty + {0} + {0,1} = 7; helpers: {2} = 8. *)
  let sset = PS.of_list [ 0; 1 ] in
  Alcotest.(check int) "E_S" 7 (State.count_subset_peers s sset);
  Alcotest.(check int) "x_{H_S}" 8 (State.count_helpful_peers s sset);
  Alcotest.(check int) "partition" (State.n s)
    (State.count_subset_peers s sset + State.count_helpful_peers s sset)

let test_sample_uniform_distribution () =
  let rng = P2p_prng.Rng.of_seed 6 in
  let s = State.of_counts [ (PS.empty, 3); (PS.singleton 0, 1) ] in
  let hits = ref 0 in
  let n = 40_000 in
  for _ = 1 to n do
    if PS.is_empty (State.sample_uniform_peer s ~draw:(P2p_prng.Rng.int_below rng)) then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "3/4 of draws" true (Float.abs (freq -. 0.75) < 0.01)

let test_sample_empty_raises () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (State.sample_uniform_peer (State.create ()) ~draw:(fun _ -> 0));
       false
     with Invalid_argument _ -> true)

let test_equal () =
  let a = State.of_counts [ (PS.empty, 2); (PS.singleton 0, 1) ] in
  let b = State.of_counts [ (PS.singleton 0, 1); (PS.empty, 2) ] in
  Alcotest.(check bool) "equal" true (State.equal a b);
  State.add_peer b PS.empty;
  Alcotest.(check bool) "not equal" false (State.equal a b)

(* Regression for the incrementally maintained copy counts: after a long
   random add/remove/move trace, the O(1) counters must agree exactly
   with a from-scratch rescan of the occupied types.  An off-by-one in
   the move-delta accounting (e.g. double-crediting pieces shared by the
   source and target types) survives short unit tests but not this. *)
let test_incremental_counts_match_rescan () =
  let rng = P2p_prng.Rng.of_seed 4242 in
  let k = 5 in
  let s = State.create () in
  let recount () =
    let fresh = Array.make k 0 in
    State.iter s (fun c v ->
        PS.iter (fun i -> if i < k then fresh.(i) <- fresh.(i) + v) c);
    fresh
  in
  let random_type () = PS.of_index (P2p_prng.Rng.int_below rng (1 lsl k)) in
  let random_occupied () =
    (* A uniformly chosen peer's type — only valid when n > 0. *)
    State.sample_uniform_peer s ~draw:(P2p_prng.Rng.int_below rng)
  in
  for step = 1 to 5_000 do
    (match P2p_prng.Rng.int_below rng 3 with
    | 0 -> State.add_peer s (random_type ())
    | 1 -> if State.n s > 0 then State.remove_peer s (random_occupied ())
    | _ ->
        if State.n s > 0 then
          State.move_peer s ~from_:(random_occupied ()) ~to_:(random_type ()))
    ;
    if step mod 500 = 0 then
      Alcotest.(check (array int))
        (Printf.sprintf "counts at step %d" step)
        (recount ())
        (State.piece_count_vector s ~k)
  done;
  Alcotest.(check (array int)) "final counts" (recount ()) (State.piece_count_vector s ~k);
  Array.iteri
    (fun i expected ->
      Alcotest.(check int)
        (Printf.sprintf "piece_copies %d" i)
        expected
        (State.piece_copies s ~k ~piece:i))
    (recount ())

(* Σx² is updated in O(1) inside the slot primitives; after random
   add/remove/move traces, copies (which must not share it) and
   of_counts rebuilds it must equal the brute-force sum. *)
let test_same_type_pairs_match_rescan () =
  let rng = P2p_prng.Rng.of_seed 77 in
  let k = 4 in
  let brute s = State.fold s ~init:0 ~f:(fun acc _ v -> acc + (v * v)) in
  let random_type () = PS.of_index (P2p_prng.Rng.int_below rng (1 lsl k)) in
  let s = ref (State.create ()) in
  for step = 1 to 6_000 do
    let occupied () = State.sample_uniform_peer !s ~draw:(P2p_prng.Rng.int_below rng) in
    (* adds balance removes, so counts stay small and types keep
       emptying and refilling *)
    (match P2p_prng.Rng.int_below rng 10 with
    | 0 | 1 | 2 -> State.add_peer !s (random_type ())
    | 3 | 4 | 5 -> if State.n !s > 0 then State.remove_peer !s (occupied ())
    | 6 | 7 -> if State.n !s > 0 then State.move_peer !s ~from_:(occupied ()) ~to_:(random_type ())
    | 8 ->
        let before = State.same_type_pairs !s in
        let c = State.copy !s in
        State.add_peer c (random_type ());
        Alcotest.(check int) "copy leaves the original's sum alone" before
          (State.same_type_pairs !s);
        s := c
    | _ ->
        (* Rebuild with every entry split in two: of_counts sums duplicates. *)
        s :=
          State.of_counts
            (List.concat_map (fun (c, v) -> [ (c, v / 2); (c, v - (v / 2)) ]) (State.to_alist !s)));
    Alcotest.(check int) (Printf.sprintf "sum x^2 at step %d" step) (brute !s)
      (State.same_type_pairs !s)
  done;
  Alcotest.(check int) "final sum x^2" (brute !s) (State.same_type_pairs !s)

(* 99.9% quantile of chi-square with [df] degrees of freedom
   (Wilson-Hilferty; within 2% for df >= 2). *)
let chi2_crit df =
  let d = float_of_int df in
  let h = 2.0 /. (9.0 *. d) in
  d *. ((1.0 -. h +. (3.0902 *. sqrt h)) ** 3.0)

let chi2 ~draws ~expected ~observed =
  List.fold_left
    (fun acc (key, p) ->
      let e = p *. float_of_int draws in
      let o = float_of_int (Option.value (Hashtbl.find_opt observed key) ~default:0) in
      acc +. ((o -. e) *. (o -. e) /. e))
    0.0 expected

(* The pair sampler against uniform over ordered pairs of peers with
   different types, P(C, D) = x_C x_D / (n² − Σx²), by Pearson
   chi-square at the 99.9% level; and the not-of-type draw against
   uniform over the other peers.  A flat state runs the rejection path;
   a one-club-heavy state (acceptance ~6%) mostly runs the scan. *)
let test_pair_sampler_chi_square () =
  let rng = P2p_prng.Rng.of_seed 19 in
  let draw = P2p_prng.Rng.int_below rng in
  let draws = 200_000 in
  let check name entries =
    let s = State.of_counts entries in
    let n = State.n s in
    let distinct = float_of_int ((n * n) - State.same_type_pairs s) in
    let expected =
      List.concat_map
        (fun (u, xu) ->
          List.filter_map
            (fun (d, xd) ->
              if PS.equal u d then None
              else Some ((u, d), float_of_int (xu * xd) /. distinct))
            entries)
        entries
    in
    let observed = Hashtbl.create 64 in
    let pair = { State.uploader = PS.empty; downloader = PS.empty } in
    for _ = 1 to draws do
      State.sample_distinct_pair s ~draw pair;
      let key = (pair.State.uploader, pair.State.downloader) in
      Hashtbl.replace observed key (1 + Option.value (Hashtbl.find_opt observed key) ~default:0)
    done;
    Alcotest.(check int) (name ^ ": only distinct-type pairs") (List.length expected)
      (Hashtbl.length observed);
    let df = List.length expected - 1 in
    let stat = chi2 ~draws ~expected ~observed in
    Alcotest.(check bool)
      (Printf.sprintf "%s pairs: chi2 %.1f, df %d, crit %.1f" name stat df (chi2_crit df))
      true
      (stat < chi2_crit df);
    (* not-of-type draws, excluding the most common type *)
    let club, xc =
      List.fold_left (fun (c, x) (d, y) -> if y > x then (d, y) else (c, x)) (PS.empty, 0) entries
    in
    let expected =
      List.filter_map
        (fun (c, x) ->
          if PS.equal c club then None else Some (c, float_of_int x /. float_of_int (n - xc)))
        entries
    in
    let observed = Hashtbl.create 16 in
    for _ = 1 to draws do
      let c = State.sample_peer_not_of s ~draw club in
      Hashtbl.replace observed c (1 + Option.value (Hashtbl.find_opt observed c) ~default:0)
    done;
    Alcotest.(check bool) (name ^ ": excluded type never drawn") false (Hashtbl.mem observed club);
    let df = List.length expected - 1 in
    let stat = chi2 ~draws ~expected ~observed in
    Alcotest.(check bool)
      (Printf.sprintf "%s not-of-type: chi2 %.1f, df %d, crit %.1f" name stat df (chi2_crit df))
      true
      (stat < chi2_crit df)
  in
  check "flat" (List.init 8 (fun i -> (PS.of_index i, [| 5; 3; 4; 2; 6; 1; 3; 2 |].(i))));
  check "one-club"
    [ (PS.of_list [ 0; 1 ], 200); (PS.empty, 3); (PS.singleton 2, 1); (PS.full ~k:3, 2) ];
  let single = State.of_counts [ (PS.singleton 1, 5) ] in
  Alcotest.(check bool) "one type: no distinct pair" true
    (try
       State.sample_distinct_pair single ~draw { State.uploader = PS.empty; downloader = PS.empty };
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "one type: no peer of another type" true
    (try
       ignore (State.sample_peer_not_of single ~draw (PS.singleton 1));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "state"
    [
      ( "state",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "move" `Quick test_move;
          Alcotest.test_case "of_counts" `Quick test_of_counts;
          Alcotest.test_case "copy" `Quick test_copy_isolated;
          Alcotest.test_case "alist sorted" `Quick test_alist_sorted;
          Alcotest.test_case "piece counts" `Quick test_piece_counts;
          Alcotest.test_case "incremental counts vs rescan" `Quick
            test_incremental_counts_match_rescan;
          Alcotest.test_case "subset/helpful counts" `Quick test_subset_helpful_counts;
          Alcotest.test_case "sample distribution" `Quick test_sample_uniform_distribution;
          Alcotest.test_case "sample empty" `Quick test_sample_empty_raises;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "sum x^2 vs rescan" `Quick test_same_type_pairs_match_rescan;
          Alcotest.test_case "pair sampler (chi-square)" `Quick test_pair_sampler_chi_square;
        ] );
    ]
