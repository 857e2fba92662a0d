(* Tests for the xoshiro256** generator. *)

module Rng = P2p_prng.Rng

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_determinism () =
  let a = Rng.of_seed 42 and b = Rng.of_seed 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.of_seed 1 and b = Rng.of_seed 2 in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr matches
  done;
  Alcotest.(check bool) "different seeds diverge" true (!matches < 3)

let test_copy_independent () =
  let a = Rng.of_seed 7 in
  let b = Rng.copy a in
  check Alcotest.int64 "copy same next" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing a does not advance b; resync check *)
  let x = Rng.bits64 a and y = Rng.bits64 b in
  Alcotest.(check bool) "streams now offset" true (x <> y)

let test_split_decorrelates () =
  let parent = Rng.of_seed 99 in
  let child = Rng.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 parent = Rng.bits64 child then incr matches
  done;
  Alcotest.(check bool) "child stream distinct" true (!matches < 3)

let test_seed_pair_deterministic () =
  let a = Rng.of_seed_pair ~master:42 ~stream:17 in
  let b = Rng.of_seed_pair ~master:42 ~stream:17 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_pair_streams_decorrelate () =
  (* Adjacent stream indices of the same master must look independent —
     the replication runner hands stream i to replication i. *)
  let a = Rng.of_seed_pair ~master:7 ~stream:0 in
  let b = Rng.of_seed_pair ~master:7 ~stream:1 in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr matches
  done;
  Alcotest.(check bool) "adjacent streams diverge" true (!matches < 3)

let test_seed_pair_masters_decorrelate () =
  let a = Rng.of_seed_pair ~master:1 ~stream:5 in
  let b = Rng.of_seed_pair ~master:2 ~stream:5 in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr matches
  done;
  Alcotest.(check bool) "same stream, different masters diverge" true (!matches < 3)

let test_seed_pair_mean_uniform () =
  (* Pool one draw from each of many streams: cross-stream output should
     still be uniform, not clustered by the derivation. *)
  let acc = ref 0.0 in
  let n = 20_000 in
  for i = 0 to n - 1 do
    acc := !acc +. Rng.float (Rng.of_seed_pair ~master:3 ~stream:i)
  done;
  Alcotest.(check bool) "cross-stream mean near 1/2" true
    (Float.abs ((!acc /. float_of_int n) -. 0.5) < 0.01)

let test_float_range () =
  let rng = Rng.of_seed 5 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_float_pos_range () =
  let rng = Rng.of_seed 6 in
  for _ = 1 to 10_000 do
    let x = Rng.float_pos rng in
    Alcotest.(check bool) "in (0,1]" true (x > 0.0 && x <= 1.0)
  done

let test_float_mean () =
  let rng = Rng.of_seed 8 in
  let acc = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_below_bounds () =
  let rng = Rng.of_seed 9 in
  for _ = 1 to 10_000 do
    let x = Rng.int_below rng 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done

let test_int_below_uniform () =
  let rng = Rng.of_seed 10 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Rng.int_below rng 5 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "frequency near 1/5" true (Float.abs (freq -. 0.2) < 0.01))
    counts

let test_int_below_one () =
  let rng = Rng.of_seed 11 in
  check Alcotest.int "n=1 gives 0" 0 (Rng.int_below rng 1)

let test_int_below_invalid () =
  let rng = Rng.of_seed 12 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int_below: bound must be positive")
    (fun () -> ignore (Rng.int_below rng 0))

let test_int_in_range () =
  let rng = Rng.of_seed 13 in
  for _ = 1 to 1000 do
    let x = Rng.int_in_range rng ~lo:(-3) ~hi:4 in
    Alcotest.(check bool) "in [-3,4]" true (x >= -3 && x <= 4)
  done

let test_bool_balance () =
  let rng = Rng.of_seed 14 in
  let heads = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr heads
  done;
  let freq = float_of_int !heads /. float_of_int n in
  Alcotest.(check bool) "fair coin" true (Float.abs (freq -. 0.5) < 0.01)

let test_bernoulli_extremes () =
  let rng = Rng.of_seed 15 in
  Alcotest.(check bool) "p=1 true" true (Rng.bernoulli rng ~p:1.0);
  Alcotest.(check bool) "p=0 false" false (Rng.bernoulli rng ~p:0.0)

let test_bernoulli_rate () =
  let rng = Rng.of_seed 16 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p=0.3 frequency" true (Float.abs (freq -. 0.3) < 0.01)

let test_jump_changes_state () =
  let a = Rng.of_seed 21 in
  let b = Rng.copy a in
  Rng.jump a;
  Alcotest.(check bool) "jumped stream differs" true (Rng.bits64 a <> Rng.bits64 b)

let test_pp_stable () =
  let rng = Rng.of_seed 1 in
  let s1 = Format.asprintf "%a" Rng.pp rng in
  let s2 = Format.asprintf "%a" Rng.pp (Rng.of_seed 1) in
  check Alcotest.string "pp deterministic" s1 s2

(* Stream golden: exact values recorded from the reference [Int64]
   implementation.  Any change to the state representation or to the
   draw paths must reproduce them bit for bit. *)
let test_stream_golden () =
  let bits name rng expected =
    List.iteri
      (fun i e -> check Alcotest.int64 (Printf.sprintf "%s bits64 #%d" name i) e (Rng.bits64 rng))
      expected
  in
  bits "of_seed 1" (Rng.of_seed 1)
    [ 0xB3F2AF6D0FC710C5L; 0x853B559647364CEAL; 0x92F89756082A4514L; 0x642E1C7BC266A3A7L;
      0xB27A48E29A233673L; 0x24C123126FFDA722L; 0x123004EF8DF510E6L; 0x61954DCC47B1E89DL ];
  bits "of_seed 42" (Rng.of_seed 42)
    [ 0x15780B2E0C2EC716L; 0x6104D9866D113A7EL; 0xAE17533239E499A1L; 0xECB8AD4703B360A1L;
      0xFDE6DC7FE2EC5E64L; 0xC50DA53101795238L; 0xB82154855A65DDB2L; 0xD99A2743EBE60087L ];
  bits "of_seed_pair 7/3" (Rng.of_seed_pair ~master:7 ~stream:3)
    [ 0xBA5199E67230912EL; 0xD0842C3CD10111BEL; 0x0818F24DA67AB5B4L; 0x1ACD224C8D2AE52FL;
      0xDABFC2E92E54F429L; 0xF280273CCF6F5559L; 0xBD85C222C9B9FDB2L; 0x290D0888481B4632L ];
  (* One generator through all four bounds in turn; the last bound,
     2^61 + 1, rejects about half of its raw draws. *)
  let rng = Rng.of_seed 1 in
  List.iter
    (fun (n, expected) ->
      List.iteri
        (fun i e ->
          check Alcotest.int (Printf.sprintf "int_below %d #%d" n i) e (Rng.int_below rng n))
        expected)
    [
      (2, [ 1; 0; 0; 1; 1; 0; 0; 1 ]);
      (16, [ 1; 0; 1; 6; 1; 5; 7; 5 ]);
      (1_000_003, [ 758007; 116694; 435869; 364000; 66361; 960398; 616921; 276339 ]);
      ( (1 lsl 61) + 1,
        [ 1926416709288835536; 21086365730482213; 202581184499657049; 1613474184296668030;
          1545422153750379572; 347846721367029943; 1087966918018904437; 93812656642291900 ] );
    ];
  let rng = Rng.of_seed 42 in
  let floats name draw expected =
    List.iteri
      (fun i e ->
        check Alcotest.int64 (Printf.sprintf "%s #%d" name i) e
          (Int64.bits_of_float (draw rng)))
      expected
  in
  floats "float" Rng.float
    [ 0x3FB5780B2E0C2EC0L; 0x3FD84136619B444EL; 0x3FE5C2EA66473C93L; 0x3FED9715A8E0766CL ];
  floats "float_pos" Rng.float_pos
    [ 0x3FEFBCDB8FFC5D8CL; 0x3FE8A1B4A6202F2BL; 0x3FE7042A90AB4CBCL; 0x3FEB3344E87D7CC1L ];
  let rng = Rng.of_seed 42 in
  let child = Rng.split rng in
  let pp = Format.asprintf "%a" Rng.pp in
  check Alcotest.string "pp after split (parent)"
    "xoshiro256**{cd2430ea93c77c02;d26ab6428e8200c4;3ce231bcdee2f1c7;8252ee1e60599785}" (pp rng);
  check Alcotest.string "pp after split (child)"
    "xoshiro256**{12fcf375691cfb21;fe11ba804230a180;148fca408b78392;299baedc9f57f54}" (pp child);
  Rng.jump rng;
  check Alcotest.string "pp after jump"
    "xoshiro256**{c6b90a344800adba;115d9b64ec2e5e37;5d916a981fa8be99;761e8f9ada616bd}" (pp rng)

(* [int_below] against the plain rejection formula it replaced: reject
   a 62-bit draw above [mask - (mask mod n)], return it [mod n].  The
   reference runs on a copy of the generator through [bits64], so the
   two must agree draw for draw, rejections included.  2^61 + 1 rejects
   about half of its raw draws, and 2^62 - 1 takes nearly every draw
   past the cheap acceptance test to the exact limit. *)
let reference_int_below rng n =
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let limit = mask - (mask mod n) in
  let draw () = Int64.to_int (Rng.bits64 rng) land mask in
  let r = ref (draw ()) in
  while !r > limit do
    r := draw ()
  done;
  !r mod n

let test_int_below_matches_reference () =
  let draws = 100_000 in
  List.iter
    (fun n ->
      let rng = Rng.of_seed n in
      let ref_rng = Rng.copy rng in
      for i = 1 to draws do
        let got = Rng.int_below rng n and want = reference_int_below ref_rng n in
        if got <> want then
          Alcotest.failf "int_below %d, draw %d: got %d, the formula gives %d" n i got want
      done;
      check Alcotest.int64
        (Printf.sprintf "int_below %d leaves the stream where the formula does" n)
        (Rng.bits64 ref_rng) (Rng.bits64 rng))
    [ 2; 16; 256; 3; 1000; (1 lsl 61) + 1; (1 lsl 62) - 1 ]

(* The draw paths keep no boxed state: an [int_below] draw allocates
   nothing, including the rejection loop. *)
let test_int_below_alloc () =
  let rng = Rng.of_seed 3 in
  let sink = ref 0 in
  let draws = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    sink := !sink lxor Rng.int_below rng 1_000_003
  done;
  let grown = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  (* slack covers the boxed float returned by [Gc.minor_words] itself *)
  Alcotest.(check bool)
    (Printf.sprintf "int_below allocates nothing (%.0f words over %d draws)" grown draws)
    true (grown <= 16.0)

let () =
  ignore checkf;
  Alcotest.run "rng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_decorrelates;
          Alcotest.test_case "seed pair determinism" `Quick test_seed_pair_deterministic;
          Alcotest.test_case "seed pair streams" `Quick test_seed_pair_streams_decorrelate;
          Alcotest.test_case "seed pair masters" `Quick test_seed_pair_masters_decorrelate;
          Alcotest.test_case "seed pair uniform" `Quick test_seed_pair_mean_uniform;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float_pos range" `Quick test_float_pos_range;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "int_below bounds" `Quick test_int_below_bounds;
          Alcotest.test_case "int_below uniform" `Quick test_int_below_uniform;
          Alcotest.test_case "int_below n=1" `Quick test_int_below_one;
          Alcotest.test_case "int_below invalid" `Quick test_int_below_invalid;
          Alcotest.test_case "int_in_range" `Quick test_int_in_range;
          Alcotest.test_case "bool balance" `Quick test_bool_balance;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "jump" `Quick test_jump_changes_state;
          Alcotest.test_case "pp stable" `Quick test_pp_stable;
          Alcotest.test_case "stream golden" `Quick test_stream_golden;
          Alcotest.test_case "int_below allocates nothing" `Quick test_int_below_alloc;
          Alcotest.test_case "int_below matches formula" `Quick test_int_below_matches_reference;
        ] );
    ]
