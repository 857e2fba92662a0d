(* The compiled GF(q) kernels against the closure-based Field/Mat
   reference, and the incremental subspace tracker against batch row
   reduction — the two equivalences the PR9 fast path rests on. *)

module Field = P2p_gf.Field
module Mat = P2p_gf.Mat
module Kernel = P2p_gf.Kernel
module Subspace = P2p_coding.Subspace
module Rng = P2p_prng.Rng

(* Every kernel variant: Gf2 (2), Prime (3), Char2 (4, 8, 16, 256),
   and — via test_generic below — Generic (9, 27). *)
let kernel_sizes = [ 2; 3; 4; 8; 16; 256 ]

let test_gf_memoised () =
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "Field.gf %d physically equal" q)
        true
        (Field.gf q == Field.gf q);
      Alcotest.(check bool)
        (Printf.sprintf "Kernel.of_field %d physically equal" q)
        true
        (Kernel.of_field (Field.gf q) == Kernel.of_field (Field.gf q)))
    kernel_sizes

(* Element operations: exhaustive over all pairs for q <= 16, random
   sampling for 256. *)
let test_elements_vs_field () =
  let rng = Rng.of_seed 11 in
  List.iter
    (fun q ->
      let f = Field.gf q in
      let kern = Kernel.of_field f in
      Alcotest.(check int) "q" q (Kernel.q kern);
      let pairs =
        if q <= 16 then
          List.concat_map (fun a -> List.init q (fun b -> (a, b))) (List.init q Fun.id)
        else List.init 500 (fun _ -> (Rng.int_below rng q, Rng.int_below rng q))
      in
      List.iter
        (fun (a, b) ->
          Alcotest.(check int) "add" (f.Field.add a b) (Kernel.add kern a b);
          Alcotest.(check int) "sub" (f.Field.sub a b) (Kernel.sub kern a b);
          Alcotest.(check int) "neg" (f.Field.neg a) (Kernel.neg kern a);
          Alcotest.(check int) "mul" (f.Field.mul a b) (Kernel.mul kern a b);
          if a <> 0 then Alcotest.(check int) "inv" (f.Field.inv a) (Kernel.inv kern a))
        pairs;
      Alcotest.(check bool) "inv 0 raises" true
        (try
           ignore (Kernel.inv kern 0);
           false
         with Division_by_zero -> true))
    kernel_sizes

(* Odd-characteristic extensions fall back to the Generic variant and
   must still agree with the closures. *)
let test_generic_fallback () =
  List.iter
    (fun q ->
      let f = Field.gf q in
      let kern = Kernel.of_field f in
      for a = 0 to q - 1 do
        for b = 0 to q - 1 do
          Alcotest.(check int) "mul" (f.Field.mul a b) (Kernel.mul kern a b)
        done;
        if a <> 0 then Alcotest.(check int) "inv" (f.Field.inv a) (Kernel.inv kern a)
      done)
    [ 9; 27 ]

(* axpy/scale against the same row operation written with the closures. *)
let prop_axpy_scale_vs_reference =
  QCheck2.Test.make ~name:"axpy_into/scale_into match closure reference" ~count:300
    QCheck2.Gen.(
      pair (oneofl kernel_sizes) (pair small_nat (pair small_nat small_nat)))
    (fun (q, (c0, (s1, s2))) ->
      let f = Field.gf q in
      let kern = Kernel.of_field f in
      let k = 17 in
      let rng = Rng.of_seed_pair ~master:s1 ~stream:s2 in
      let x = Array.init k (fun _ -> Rng.int_below rng q) in
      let y = Array.init k (fun _ -> Rng.int_below rng q) in
      let c = c0 mod q in
      let expect_axpy = Array.init k (fun j -> f.Field.add (f.Field.mul c x.(j)) y.(j)) in
      let got = Array.copy y in
      Kernel.axpy_into kern ~c ~x ~y:got;
      let expect_scale = Array.map (fun v -> f.Field.mul c v) x in
      let scaled = Array.copy x in
      Kernel.scale_into kern ~c scaled;
      got = expect_axpy && scaled = expect_scale)

let test_axpy_length_mismatch () =
  let kern = Kernel.of_field (Field.gf 16) in
  Alcotest.(check bool) "length mismatch raises" true
    (try
       Kernel.axpy_into kern ~c:1 ~x:(Array.make 3 0) ~y:(Array.make 4 0);
       false
     with Invalid_argument _ -> true)

(* ---- lane format ---- *)

let test_ctz () =
  for j = 0 to 62 do
    Alcotest.(check int) (Printf.sprintf "ctz bit %d" j) j (Kernel.ctz (1 lsl j));
    (* extra high bits must not disturb the answer *)
    Alcotest.(check int) "ctz with noise" j (Kernel.ctz ((1 lsl j) lor (1 lsl 62)))
  done

(* The table a packed row is scaled with by bit-planes: c·x^b at
   c*m + b, where x^b is the element [1 lsl b].  Built up to m = 7;
   wider fields scale lane by lane through their log tables. *)
let test_lane_products () =
  List.iter
    (fun (q, m) ->
      let f = Field.gf q in
      let kern = Kernel.of_field f in
      let table = Kernel.lane_products kern in
      Alcotest.(check int) (Printf.sprintf "q=%d table size" q) (q * m) (Array.length table);
      for c = 0 to q - 1 do
        for b = 0 to m - 1 do
          Alcotest.(check int)
            (Printf.sprintf "q=%d c=%d b=%d" q c b)
            (f.Field.mul c (1 lsl b))
            table.((c * m) + b)
        done
      done)
    [ (2, 1); (4, 2); (8, 3); (16, 4); (128, 7) ];
  Alcotest.(check int) "GF(256): no table" 0
    (Array.length (Kernel.lane_products (Kernel.of_field (Field.gf 256))));
  Alcotest.(check int) "GF(3): no lanes" 0
    (Array.length (Kernel.lane_products (Kernel.of_field (Field.gf 3))))

(* ---- incremental subspace vs batch row reduction ---- *)

(* Feed the same random receive trace to the incremental tracker and to
   batch Mat.rank/row_reduce over the accumulated history; dimension and
   canonical basis must agree after every receive. *)
let check_trace ~q ~k ~inserts ~seed =
  let f = Field.gf q in
  let rng = Rng.of_seed seed in
  let s = Subspace.create f ~k in
  let history = ref [] in
  for step = 1 to inserts do
    (* mix of fresh uniform vectors and members of the current span
       (members must be rejected as useless) *)
    let v =
      if Rng.int_below rng 4 = 0 && Subspace.dim s > 0 then Subspace.random_member s rng
      else Mat.random_vec f (Rng.int_below rng) k
    in
    let dim_before = Subspace.dim s in
    let useful = Subspace.insert s v in
    history := v :: !history;
    let batch = Array.of_list (List.rev !history) in
    let rank = Mat.rank f batch in
    Alcotest.(check int)
      (Printf.sprintf "q=%d k=%d step %d: dim = batch rank" q k step)
      rank (Subspace.dim s);
    Alcotest.(check bool) "useful iff dim grew" (Subspace.dim s = dim_before + 1) useful;
    let canonical = Mat.row_reduce f batch in
    Alcotest.(check bool)
      (Printf.sprintf "q=%d k=%d step %d: basis canonical" q k step)
      true
      (Subspace.basis s = canonical)
  done

let test_incremental_matches_batch () =
  List.iter
    (fun q -> check_trace ~q ~k:9 ~inserts:14 ~seed:(100 + q))
    kernel_sizes

(* GF(2) with k > 63: rows span multiple packed words. *)
let test_incremental_multiword_gf2 () =
  check_trace ~q:2 ~k:80 ~inserts:30 ~seed:7

(* Characteristic-2 rows are packed into m-bit lanes, 63 / m lanes per
   native-int word.  K equal to the lanes one word holds, and one more,
   puts pivots on the last lane of a full word and on the first lane of
   a second word. *)
let test_incremental_word_boundaries () =
  List.iter
    (fun (q, lanes) ->
      List.iter
        (fun k -> check_trace ~q ~k ~inserts:(k + 4) ~seed:((1000 * q) + k))
        [ lanes; lanes + 1 ])
    [ (2, 63); (4, 31); (8, 21); (16, 15); (256, 7) ]

(* Fields from GF(256) on scale packed rows lane by lane through their
   log tables.  GF(512) packs seven 9-bit lanes to a word, the top one
   on the sign bit: one word (K = 3) and two (K = 9). *)
let test_incremental_log_scaled () =
  check_trace ~q:512 ~k:3 ~inserts:6 ~seed:5;
  check_trace ~q:512 ~k:9 ~inserts:13 ~seed:6

(* GF(8) at K = 21: three-bit lanes fill a word exactly, so the top
   lane holds bit 62, the sign bit of an OCaml int. *)
let test_incremental_sign_bit_lane () =
  List.iter (fun seed -> check_trace ~q:8 ~k:21 ~inserts:30 ~seed) [ 1; 2; 3 ]

let prop_incremental_matches_batch =
  QCheck2.Test.make ~name:"incremental dim = batch rank (random traces)" ~count:60
    QCheck2.Gen.(pair (oneofl kernel_sizes) (pair (int_range 1 12) small_nat))
    (fun (q, (k, seed)) ->
      let f = Field.gf q in
      let rng = Rng.of_seed seed in
      let s = Subspace.create f ~k in
      let history = ref [] in
      let ok = ref true in
      for _ = 1 to 10 do
        let v = Mat.random_vec f (Rng.int_below rng) k in
        ignore (Subspace.insert s v);
        history := v :: !history;
        let batch = Array.of_list !history in
        if Subspace.dim s <> Mat.rank f batch then ok := false
      done;
      !ok)

let test_row_reduce_ragged () =
  let f = Field.gf 4 in
  Alcotest.(check bool) "ragged rows raise" true
    (try
       ignore (Mat.row_reduce f [| [| 1; 2; 3 |]; [| 1; 2 |] |]);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "kernel"
    [
      ( "kernels",
        [
          Alcotest.test_case "memoisation" `Quick test_gf_memoised;
          Alcotest.test_case "elements vs field" `Quick test_elements_vs_field;
          Alcotest.test_case "generic fallback" `Quick test_generic_fallback;
          Alcotest.test_case "axpy length" `Quick test_axpy_length_mismatch;
          QCheck_alcotest.to_alcotest prop_axpy_scale_vs_reference;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "ctz" `Quick test_ctz;
          Alcotest.test_case "products table" `Quick test_lane_products;
        ] );
      ( "incremental basis",
        [
          Alcotest.test_case "matches batch RREF" `Quick test_incremental_matches_batch;
          Alcotest.test_case "multiword GF(2)" `Quick test_incremental_multiword_gf2;
          Alcotest.test_case "word boundaries" `Quick test_incremental_word_boundaries;
          Alcotest.test_case "sign-bit lane GF(8)" `Quick test_incremental_sign_bit_lane;
          Alcotest.test_case "log-scaled GF(512)" `Quick test_incremental_log_scaled;
          Alcotest.test_case "ragged rows" `Quick test_row_reduce_ragged;
          QCheck_alcotest.to_alcotest prop_incremental_matches_batch;
        ] );
    ]
