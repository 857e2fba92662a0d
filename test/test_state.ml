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

(* The peer bag against the counts it mirrors: after every step of random
   add/remove/move/copy/of_counts traces, the bag holds exactly the
   counted multiset, and each type's list holds exactly x_C distinct
   positions, all of that type.  A copy or an of_counts rebuild starts
   without a bag; the step mutates it once before the check builds it,
   so mutations of a bagless state are covered too.  A copy is checked
   to leave its original alone. *)
let test_bag_matches_counts () =
  let rng = P2p_prng.Rng.of_seed 2311 in
  let k = 4 in
  let random_type () = PS.of_index (P2p_prng.Rng.int_below rng (1 lsl k)) in
  let check step s =
    let bag, lists = State.bag_view s in
    let n = State.n s in
    let at = Printf.sprintf "step %d: %s" step in
    Alcotest.(check int) (at "bag size") n (Array.length bag);
    let tally = Hashtbl.create 16 in
    Array.iter (fun c -> Hashtbl.replace tally c (1 + Option.value (Hashtbl.find_opt tally c) ~default:0)) bag;
    Alcotest.(check (list (pair int int)))
      (at "bag multiset = counts")
      (List.map (fun (c, v) -> (PS.to_index c, v)) (State.to_alist s))
      (Hashtbl.fold (fun c v acc -> (PS.to_index c, v) :: acc) tally [] |> List.sort compare);
    Alcotest.(check int) (at "one list per occupied type") (State.occupied s) (List.length lists);
    let seen = Array.make n false in
    List.iter
      (fun (c, positions) ->
        Alcotest.(check int) (at "list length = x_C") (State.count s c) (List.length positions);
        List.iter
          (fun p ->
            if p < 0 || p >= n || seen.(p) || not (PS.equal bag.(p) c) then
              Alcotest.failf "%s" (at (Printf.sprintf "bad position %d on the list of %s" p (PS.to_string c)));
            seen.(p) <- true)
          positions)
      lists
  in
  (* the type of some peer, read off the counts so no bag is built *)
  let counted_type s =
    let types = State.to_alist s in
    fst (List.nth types (P2p_prng.Rng.int_below rng (List.length types)))
  in
  let mutate s ~pick =
    match P2p_prng.Rng.int_below rng 3 with
    | 0 -> State.add_peer s (random_type ())
    | 1 -> if State.n s > 0 then State.remove_peer s (pick s)
    | _ -> if State.n s > 0 then State.move_peer s ~from_:(pick s) ~to_:(random_type ())
  in
  let drawn s = State.sample_uniform_peer s ~draw:(P2p_prng.Rng.int_below rng) in
  let s = ref (State.create ()) in
  for step = 1 to 6_000 do
    (match P2p_prng.Rng.int_below rng 20 with
    | 18 ->
        let before = State.bag_view !s in
        let c = State.copy !s in
        mutate c ~pick:counted_type;
        State.add_peer c (random_type ());
        if State.bag_view !s <> before then Alcotest.failf "step %d: a copy moved its original's bag" step;
        s := c
    | 19 ->
        s :=
          State.of_counts
            (List.concat_map (fun (c, v) -> [ (c, v / 2); (c, v - (v / 2)) ]) (State.to_alist !s));
        mutate !s ~pick:counted_type
    | _ ->
        (* a little more adding than removing, so the bag grows and holes
           are filled from every depth *)
        if P2p_prng.Rng.int_below rng 7 = 0 then State.add_peer !s (random_type ())
        else mutate !s ~pick:drawn);
    check step !s
  done

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

(* Draw [draws] outcomes of [sample] and compare their frequencies with
   [expected] by Pearson chi-square at the 99.9% level. *)
let check_law name ~draws ~expected sample =
  let observed = Hashtbl.create 16 in
  for _ = 1 to draws do
    let key = sample () in
    if not (List.mem_assoc key expected) then Alcotest.failf "%s: an outcome outside the law" name;
    Hashtbl.replace observed key (1 + Option.value (Hashtbl.find_opt observed key) ~default:0)
  done;
  let df = List.length expected - 1 in
  let stat = chi2 ~draws ~expected ~observed in
  Alcotest.(check bool)
    (Printf.sprintf "%s: chi2 %.1f, df %d, crit %.1f" name stat df (chi2_crit df))
    true
    (stat < chi2_crit df)

let law_without s c =
  let others = State.n s - State.count s c in
  List.filter_map
    (fun (d, x) ->
      if PS.equal d c then None else Some (d, float_of_int x /. float_of_int others))
    (State.to_alist s)

(* The not-of-type draw on both of its paths.  With the excluded type
   rare, the first bag draw is nearly always accepted (one draw); with
   it holding >= 95% of the peers, the three tries nearly always fail
   and the exact scan picks the peer (four draws).  The draw counts show
   which path ran; the law must be the same on both. *)
let test_not_of_both_paths () =
  let rng = P2p_prng.Rng.of_seed 23 in
  let calls = ref 0 in
  let draw m =
    incr calls;
    P2p_prng.Rng.int_below rng m
  in
  let draws = 200_000 in
  let run name entries excluded ~path_draws ~at_least =
    let s = State.of_counts entries in
    let on_path = ref 0 in
    check_law name ~draws ~expected:(law_without s excluded) (fun () ->
        calls := 0;
        let c = State.sample_peer_not_of s ~draw excluded in
        if !calls = path_draws then incr on_path;
        c);
    let share = float_of_int !on_path /. float_of_int draws in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f of draws took %d draw(s)" name share path_draws)
      true (share >= at_least)
  in
  run "rare excluded type (rejection)"
    [ (PS.empty, 40); (PS.singleton 0, 30); (PS.singleton 1, 25); (PS.of_list [ 0; 1 ], 5) ]
    (PS.of_list [ 0; 1 ]) ~path_draws:1 ~at_least:0.9;
  run "dominant excluded type (scan)"
    [ (PS.of_list [ 0; 1 ], 400); (PS.empty, 8); (PS.singleton 2, 6); (PS.full ~k:3, 4) ]
    (PS.of_list [ 0; 1 ]) ~path_draws:4 ~at_least:0.8

(* A uniform peer from a bag shuffled by moves and removals, so that bag
   positions no longer run in slot order: the draw must still give each
   type its share x_C/n. *)
let test_uniform_after_moves () =
  let rng = P2p_prng.Rng.of_seed 31 in
  let draw = P2p_prng.Rng.int_below rng in
  let s = State.of_counts (List.init 6 (fun i -> (PS.of_index i, 12))) in
  ignore (State.sample_uniform_peer s ~draw);
  for i = 0 to 59 do
    let c = State.sample_uniform_peer s ~draw in
    if i mod 3 = 0 then State.remove_peer s c
    else State.move_peer s ~from_:c ~to_:(PS.of_index ((PS.to_index c + i) mod 8))
  done;
  let in_slot_order =
    Array.concat (State.fold s ~init:[] ~f:(fun acc c v -> Array.make v c :: acc) |> List.rev)
  in
  Alcotest.(check bool) "bag order differs from slot order" true
    (fst (State.bag_view s) <> in_slot_order);
  let n = float_of_int (State.n s) in
  check_law "uniform peer" ~draws:200_000
    ~expected:(List.map (fun (c, x) -> (c, float_of_int x /. n)) (State.to_alist s))
    (fun () -> State.sample_uniform_peer s ~draw)

(* The type -> slot index against a reference [Map] of counts, on one
   long add/remove/move trace over K = 62 keys: random 62-bit sets, the
   empty set and the full set [max_int] (the largest key, next to the
   index's empty marker -1).  The trace fills more than 1,000 types, so
   the table doubles several times, then churns and drains.  Two groups
   of keys share a home cell with the empty and the full set at every
   capacity up to 4,096 (the home hash is copied from state.ml), so
   removals land in the middle of probe runs and must shift the rest of
   the run back.  After every step the touched count, [n], [occupied]
   and Σx² match the reference; every 50 steps every key's count and
   [to_alist] do too.  A copy taken at the peak must keep its counts
   while the original changes, and the original must keep its own while
   the copy is drained. *)
let test_index_against_map () =
  let module M = Map.Make (Int) in
  let rng = P2p_prng.Rng.of_seed 2027 in
  let home c = ((c * 0x2545F4914F6CDD1D) lsr 32) land 0xFFF in
  let sharing c = Seq.ints 1 |> Seq.filter (fun d -> d <> c && home d = home c) |> Seq.take 40 in
  let random_set () = Int64.to_int (Int64.shift_right_logical (P2p_prng.Rng.bits64 rng) 2) in
  let keys =
    Array.concat
      [
        [| 0; max_int |];
        Array.of_seq (sharing 0);
        Array.of_seq (sharing max_int);
        Array.init 1_500 (fun _ -> random_set ());
      ]
  in
  let nkeys = Array.length keys in
  let key () = keys.(P2p_prng.Rng.int_below rng nkeys) in
  let s = State.create () and m = ref M.empty in
  let get m c = Option.value (M.find_opt c m) ~default:0 in
  let bump c dv =
    m := M.update c (fun v -> match Option.value v ~default:0 + dv with 0 -> None | v -> Some v) !m
  in
  (* an occupied key: the first one at or after a random key of the pool *)
  let occupied_key () =
    let start = P2p_prng.Rng.int_below rng nkeys in
    let rec from i = if get !m keys.(i) > 0 then keys.(i) else from ((i + 1) mod nkeys) in
    from start
  in
  let check_all what st m =
    Alcotest.(check (array int)) (what ^ ": counts") (Array.map (get m) keys)
      (Array.map (fun c -> State.count st (PS.of_index c)) keys);
    Alcotest.(check (list (pair int int))) (what ^ ": to_alist") (M.bindings m)
      (List.map (fun (c, v) -> (PS.to_index c, v)) (State.to_alist st))
  in
  let check_step step touched =
    let at what = Printf.sprintf "step %d: %s" step what in
    List.iter
      (fun c ->
        Alcotest.(check int) (at (Printf.sprintf "count %d" c)) (get !m c)
          (State.count s (PS.of_index c)))
      touched;
    Alcotest.(check int) (at "n") (M.fold (fun _ v acc -> acc + v) !m 0) (State.n s);
    Alcotest.(check int) (at "occupied") (M.cardinal !m) (State.occupied s);
    Alcotest.(check int) (at "sum x^2")
      (M.fold (fun _ v acc -> acc + (v * v)) !m 0)
      (State.same_type_pairs s);
    if step mod 50 = 0 then check_all (at "all keys") s !m
  in
  let peak = ref 0 and snapshot = ref None in
  let step = ref 0 in
  let phase ~steps ~add ~remove =
    for _ = 1 to steps do
      incr step;
      let r = P2p_prng.Rng.int_below rng 100 in
      let touched =
        if r < add || M.is_empty !m then begin
          let c = key () in
          State.add_peer s (PS.of_index c);
          bump c 1;
          [ c ]
        end
        else if r < add + remove then begin
          let c = occupied_key () in
          State.remove_peer s (PS.of_index c);
          bump c (-1);
          [ c ]
        end
        else begin
          let c = occupied_key () and d = key () in
          State.move_peer s ~from_:(PS.of_index c) ~to_:(PS.of_index d);
          bump c (-1);
          bump d 1;
          [ c; d ]
        end
      in
      check_step !step touched;
      peak := Int.max !peak (State.occupied s);
      if !snapshot = None && State.occupied s >= 1_000 then snapshot := Some (State.copy s, !m)
    done
  in
  phase ~steps:4_000 ~add:75 ~remove:10;
  (* from here on the peer bag is built and kept in step as well *)
  let c = State.sample_uniform_peer s ~draw:(P2p_prng.Rng.int_below rng) in
  Alcotest.(check bool) "a drawn type is occupied" true (get !m (PS.to_index c) > 0);
  phase ~steps:4_000 ~add:35 ~remove:30;
  phase ~steps:6_000 ~add:5 ~remove:70;
  Alcotest.(check bool) (Printf.sprintf "peak of %d occupied types" !peak) true (!peak >= 1_000);
  let absent = Array.find_opt (fun c -> get !m c = 0) keys |> Option.get in
  Alcotest.(check bool) "removing an absent type raises" true
    (try
       State.remove_peer s (PS.of_index absent);
       false
     with Invalid_argument _ -> true);
  match !snapshot with
  | None -> Alcotest.fail "no copy taken"
  | Some (copy, at_copy) ->
      check_all "copy after later moves" copy at_copy;
      M.iter
        (fun c v ->
          for _ = 1 to v do
            State.remove_peer copy (PS.of_index c)
          done)
        at_copy;
      Alcotest.(check int) "drained copy" 0 (State.occupied copy);
      check_all "original after the copy drained" s !m

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
          Alcotest.test_case "bag vs counts rescan" `Quick test_bag_matches_counts;
          Alcotest.test_case "not-of-type, both paths (chi-square)" `Quick test_not_of_both_paths;
          Alcotest.test_case "uniform peer after moves (chi-square)" `Quick
            test_uniform_after_moves;
          Alcotest.test_case "type index vs reference map" `Quick test_index_against_map;
        ] );
    ]
