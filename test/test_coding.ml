(* Subspace tracking for network coding. *)

module Field = P2p_gf.Field
module Mat = P2p_gf.Mat
module Subspace = P2p_coding.Subspace
module Rng = P2p_prng.Rng

let f16 = Field.gf 16

let test_empty_subspace () =
  let s = Subspace.create f16 ~k:5 in
  Alcotest.(check int) "dim 0" 0 (Subspace.dim s);
  Alcotest.(check bool) "not full" false (Subspace.is_full s);
  Alcotest.(check bool) "contains zero" true (Subspace.contains s [| 0; 0; 0; 0; 0 |])

let test_insert_useful () =
  let s = Subspace.create f16 ~k:3 in
  Alcotest.(check bool) "first insert useful" true (Subspace.insert s [| 1; 2; 3 |]);
  Alcotest.(check int) "dim 1" 1 (Subspace.dim s);
  Alcotest.(check bool) "scalar multiple useless" false (Subspace.insert s [| 2; 4; 6 |]);
  Alcotest.(check bool) "independent useful" true (Subspace.insert s [| 0; 1; 0 |]);
  Alcotest.(check int) "dim 2" 2 (Subspace.dim s)

let test_insert_zero_useless () =
  let s = Subspace.create f16 ~k:3 in
  Alcotest.(check bool) "zero never useful" false (Subspace.insert s [| 0; 0; 0 |])

let test_full_decode () =
  let s = Subspace.create f16 ~k:3 in
  ignore (Subspace.insert s [| 1; 0; 0 |]);
  ignore (Subspace.insert s [| 1; 1; 0 |]);
  Alcotest.(check bool) "not yet" false (Subspace.is_full s);
  ignore (Subspace.insert s [| 7; 3; 9 |]);
  Alcotest.(check bool) "full" true (Subspace.is_full s);
  Alcotest.(check bool) "everything inside" true (Subspace.contains s [| 5; 11; 2 |])

let test_subspace_leq () =
  let a = Subspace.of_vectors f16 ~k:3 [ [| 1; 0; 0 |] ] in
  let b = Subspace.of_vectors f16 ~k:3 [ [| 1; 0; 0 |]; [| 0; 1; 0 |] ] in
  Alcotest.(check bool) "a <= b" true (Subspace.subspace_leq a b);
  Alcotest.(check bool) "b not <= a" false (Subspace.subspace_leq b a);
  Alcotest.(check bool) "b can help a" true (Subspace.can_help ~uploader:b ~downloader:a);
  Alcotest.(check bool) "a cannot help b" false (Subspace.can_help ~uploader:a ~downloader:b)

let test_copy_isolated () =
  let a = Subspace.of_vectors f16 ~k:3 [ [| 1; 0; 0 |] ] in
  let b = Subspace.copy a in
  ignore (Subspace.insert b [| 0; 1; 0 |]);
  Alcotest.(check int) "original untouched" 1 (Subspace.dim a);
  Alcotest.(check int) "copy grew" 2 (Subspace.dim b)

let test_random_member_inside () =
  let rng = Rng.of_seed 4 in
  let s = Subspace.of_vectors f16 ~k:4 [ [| 1; 2; 0; 0 |]; [| 0; 0; 3; 1 |] ] in
  for _ = 1 to 500 do
    Alcotest.(check bool) "member inside" true (Subspace.contains s (Subspace.random_member s rng))
  done

let test_intersection_dim () =
  let a = Subspace.of_vectors f16 ~k:3 [ [| 1; 0; 0 |]; [| 0; 1; 0 |] ] in
  let b = Subspace.of_vectors f16 ~k:3 [ [| 0; 1; 0 |]; [| 0; 0; 1 |] ] in
  Alcotest.(check int) "intersection is span{e2}" 1 (Subspace.intersection_dim a b);
  let c = Subspace.of_vectors f16 ~k:3 [ [| 0; 0; 1 |] ] in
  Alcotest.(check int) "disjoint" 0 (Subspace.intersection_dim a c)

let test_useful_probability_formula () =
  (* P(useful) = 1 - q^(dim(A∩B) - dim B). *)
  let a = Subspace.of_vectors f16 ~k:3 [ [| 1; 0; 0 |] ] in
  let b = Subspace.of_vectors f16 ~k:3 [ [| 1; 0; 0 |]; [| 0; 1; 0 |] ] in
  let expected = 1.0 -. (16.0 ** float_of_int (1 - 2)) in
  Alcotest.(check (float 1e-12)) "formula" expected
    (Subspace.useful_probability ~uploader:b ~downloader:a)

let test_useful_probability_monte_carlo () =
  let rng = Rng.of_seed 5 in
  let f = Field.gf 4 in
  let a = Subspace.of_vectors f ~k:4 [ [| 1; 0; 0; 0 |]; [| 0; 1; 0; 0 |] ] in
  let b =
    Subspace.of_vectors f ~k:4 [ [| 0; 1; 0; 0 |]; [| 0; 0; 1; 0 |]; [| 0; 0; 0; 1 |] ]
  in
  let p = Subspace.useful_probability ~uploader:b ~downloader:a in
  let hits = ref 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let v = Subspace.random_member b rng in
    let trial = Subspace.copy a in
    if Subspace.insert trial v then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "MC %.4f vs formula %.4f" freq p)
    true
    (Float.abs (freq -. p) < 0.01)

let test_cannot_help_probability_zero () =
  let a = Subspace.of_vectors f16 ~k:3 [ [| 1; 0; 0 |]; [| 0; 1; 0 |] ] in
  let sub = Subspace.of_vectors f16 ~k:3 [ [| 1; 1; 0 |] ] in
  Alcotest.(check (float 1e-12)) "uploader inside downloader" 0.0
    (Subspace.useful_probability ~uploader:sub ~downloader:a)

let test_wrong_length_raises () =
  let s = Subspace.create f16 ~k:3 in
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore (Subspace.insert s [| 1; 2 |]);
       false
     with Invalid_argument _ -> true)

(* A GF(3) and a GF(5) subspace of the same K have the same row format,
   but their elements are different numbers: comparing them must fail
   loudly instead of reducing one field's rows in the other field. *)
let test_mixed_fields_raise () =
  let f3 = Field.gf 3 and f5 = Field.gf 5 in
  let a = Subspace.of_vectors f3 ~k:3 [ [| 1; 2; 0 |]; [| 0; 1; 1 |] ] in
  let b = Subspace.of_vectors f5 ~k:3 [ [| 1; 2; 0 |]; [| 0; 0; 4 |] ] in
  let raises name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  raises "subspace_leq" (fun () -> Subspace.subspace_leq a b);
  raises "subspace_leq, swapped" (fun () -> Subspace.subspace_leq b a);
  raises "equal" (fun () -> Subspace.equal a b);
  raises "can_help" (fun () -> Subspace.can_help ~uploader:a ~downloader:b);
  raises "intersection_dim" (fun () -> Subspace.intersection_dim a b);
  raises "useful_probability" (fun () -> Subspace.useful_probability ~uploader:b ~downloader:a);
  (* Same-field results are unchanged, over GF(3) and the packed GF(2). *)
  let a' = Subspace.of_vectors f3 ~k:3 [ [| 1; 2; 0 |] ] in
  let b' = Subspace.of_vectors f3 ~k:3 [ [| 2; 1; 0 |]; [| 0; 0; 1 |] ] in
  Alcotest.(check bool) "GF(3) a' <= a" true (Subspace.subspace_leq a' a);
  Alcotest.(check bool) "GF(3) a' <= b'" true (Subspace.subspace_leq a' b');
  Alcotest.(check bool) "GF(3) b' not <= a" false (Subspace.subspace_leq b' a);
  Alcotest.(check int) "GF(3) dim (a ∩ b')" 1 (Subspace.intersection_dim a b');
  let f2 = Field.gf 2 in
  let c = Subspace.of_vectors f2 ~k:4 [ [| 1; 1; 0; 0 |]; [| 0; 0; 1; 1 |] ] in
  let d = Subspace.of_vectors f2 ~k:4 [ [| 1; 1; 1; 1 |] ] in
  Alcotest.(check bool) "GF(2) d <= c" true (Subspace.subspace_leq d c);
  Alcotest.(check int) "GF(2) dim (c ∩ d)" 1 (Subspace.intersection_dim c d);
  Alcotest.(check (float 1e-12)) "GF(2) useful probability" 0.5
    (Subspace.useful_probability ~uploader:c ~downloader:d)

(* [equal] compares canonical bases word for word; it must agree with
   two-way containment.  Pairs are built to hit every case: the same span
   from reshuffled generators, a strict subspace, a one-vector extension,
   an independent span of the same dimension, and two spans sharing all
   but one generator.  The fields cover multi-word GF(2) rows (K = 70),
   one-word GF(16) rows (K = 8), two-word GF(64) rows (K = 20) and the
   element rows of GF(9). *)
let test_equal_iff_mutual_leq () =
  let rng = Rng.of_seed 31 in
  List.iter
    (fun (q, k) ->
      let f = Field.gf q in
      let draw n = Rng.int_below rng n in
      let vec () = Mat.random_vec f draw k in
      let vecs n = List.init n (fun _ -> vec ()) in
      (* The same span: each generator gets a nonzero scale plus a random
         multiple of another generator added in, then the order is
         shuffled. *)
      let respan gens =
        let a = Array.of_list gens in
        let n = Array.length a in
        for i = 0 to n - 1 do
          a.(i) <- Mat.vec_scale f (1 + draw (q - 1)) a.(i);
          if n > 1 then begin
            let j = (i + 1 + draw (n - 1)) mod n in
            a.(i) <- Mat.vec_axpy f (draw q) a.(j) a.(i)
          end
        done;
        for i = n - 1 downto 1 do
          let j = draw (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let of_list = Subspace.of_vectors f ~k in
      let label = Printf.sprintf "GF(%d) K = %d" q k in
      let seen_equal = ref 0 and seen_unequal = ref 0 in
      let check a b =
        let mutual = Subspace.subspace_leq a b && Subspace.subspace_leq b a in
        Alcotest.(check bool) (label ^ ": equal iff mutual leq") mutual (Subspace.equal a b);
        Alcotest.(check bool) (label ^ ": equal symmetric") mutual (Subspace.equal b a);
        if mutual then incr seen_equal else incr seen_unequal
      in
      for _ = 1 to 40 do
        let d = 1 + draw k in
        let gens = vecs d in
        let a = of_list gens in
        let same = of_list (respan gens) in
        Alcotest.(check bool) (label ^ ": reshuffled generators equal") true
          (Subspace.equal a same);
        Alcotest.(check bool) (label ^ ": reshuffled generators, same basis") true
          (Subspace.basis a = Subspace.basis same);
        check a same;
        check a a;
        check a (of_list (List.tl gens));
        check a (of_list (vec () :: gens));
        check a (of_list (vecs d));
        check a (of_list (vec () :: List.tl gens))
      done;
      Alcotest.(check bool) (label ^ ": both outcomes seen") true
        (!seen_equal > 0 && !seen_unequal > 0))
    [ (2, 70); (16, 8); (64, 20); (9, 6) ]

let prop_dim_bounded =
  QCheck2.Test.make ~name:"dim <= min(#inserted, k)" ~count:300
    QCheck2.Gen.(list_size (int_range 0 8) (array_size (return 4) (int_range 0 4)))
    (fun vectors ->
      let f = Field.gf 5 in
      let vectors = List.map (Array.map (fun x -> x mod 5)) vectors in
      let s = Subspace.of_vectors f ~k:4 vectors in
      Subspace.dim s <= Int.min (List.length vectors) 4)

let prop_insert_iff_not_contained =
  QCheck2.Test.make ~name:"insert succeeds iff vector outside" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 5) (array_size (return 4) (int_range 0 2)))
        (array_size (return 4) (int_range 0 2)))
    (fun (vectors, v) ->
      let f = Field.gf 3 in
      let vectors = List.map (Array.map (fun x -> x mod 3)) vectors in
      let v = Array.map (fun x -> x mod 3) v in
      let s = Subspace.of_vectors f ~k:4 vectors in
      let was_inside = Subspace.contains s v in
      let useful = Subspace.insert s v in
      useful = not was_inside)

let () =
  Alcotest.run "coding"
    [
      ( "subspace",
        [
          Alcotest.test_case "empty" `Quick test_empty_subspace;
          Alcotest.test_case "insert useful" `Quick test_insert_useful;
          Alcotest.test_case "zero useless" `Quick test_insert_zero_useless;
          Alcotest.test_case "full decode" `Quick test_full_decode;
          Alcotest.test_case "leq / can_help" `Quick test_subspace_leq;
          Alcotest.test_case "copy isolated" `Quick test_copy_isolated;
          Alcotest.test_case "random member inside" `Quick test_random_member_inside;
          Alcotest.test_case "intersection dim" `Quick test_intersection_dim;
          Alcotest.test_case "useful probability formula" `Quick test_useful_probability_formula;
          Alcotest.test_case "useful probability MC" `Quick test_useful_probability_monte_carlo;
          Alcotest.test_case "cannot help" `Quick test_cannot_help_probability_zero;
          Alcotest.test_case "wrong length" `Quick test_wrong_length_raises;
          Alcotest.test_case "mixed fields raise" `Quick test_mixed_fields_raise;
          Alcotest.test_case "equal iff mutual leq" `Quick test_equal_iff_mutual_leq;
          QCheck_alcotest.to_alcotest prop_dim_bounded;
          QCheck_alcotest.to_alcotest prop_insert_iff_not_contained;
        ] );
    ]
