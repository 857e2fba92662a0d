(* The empirical stability classifier, exercised on synthetic traces. *)

open P2p_core

let linear_trace ~n ~slope ~noise ~seed =
  let rng = P2p_prng.Rng.of_seed seed in
  Array.init n (fun i ->
      let t = float_of_int i in
      let v =
        (slope *. t) +. (noise *. P2p_prng.Dist.standard_normal rng) +. 20.0
      in
      (t, Int.max 0 (int_of_float v)))

let test_linear_growth_unstable () =
  let r = Classify.of_samples (linear_trace ~n:400 ~slope:1.0 ~noise:5.0 ~seed:1) in
  Alcotest.(check string) "unstable" "appears-unstable" (Classify.verdict_to_string r.verdict);
  Alcotest.(check bool) "slope near 1" true (Float.abs (r.growth_rate -. 1.0) < 0.1)

let test_flat_noise_stable () =
  let r = Classify.of_samples (linear_trace ~n:400 ~slope:0.0 ~noise:5.0 ~seed:2) in
  Alcotest.(check string) "stable" "appears-stable" (Classify.verdict_to_string r.verdict)

let test_returning_process_stable () =
  (* Oscillating but recurrent: always dips back near zero. *)
  let trace =
    Array.init 400 (fun i ->
        let t = float_of_int i in
        (t, int_of_float (50.0 *. Float.abs (sin (t /. 20.0)))))
  in
  let r = Classify.of_samples trace in
  Alcotest.(check string) "stable" "appears-stable" (Classify.verdict_to_string r.verdict);
  Alcotest.(check bool) "low late minimum" true (r.late_minimum < 10)

let test_too_few_samples () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Classify.of_samples (Array.init 8 (fun i -> (float_of_int i, i))));
       false
     with Invalid_argument _ -> true)

(* Every field of two fits pinned bit for bit, on an odd-length noisy
   line (its halves differ in length) and on the recurrent trace above:
   the fit's summation order is part of the result. *)
let test_fit_bits_pinned () =
  let bits (r : Classify.result) =
    ( Int64.bits_of_float r.growth_rate,
      Int64.bits_of_float r.growth_t_stat,
      Int64.bits_of_float r.early_scale,
      Int64.bits_of_float r.mean_n,
      (r.late_minimum, r.final_n, Classify.verdict_to_string r.verdict) )
  in
  let show (a, b, c, d, (e, f, g)) = Printf.sprintf "%LdL %LdL %LdL %LdL %d %d %s" a b c d e f g in
  let noisy = Classify.of_samples (linear_trace ~n:401 ~slope:0.7 ~noise:5.0 ~seed:9) in
  let recurrent =
    Classify.of_samples
      (Array.init 333 (fun i ->
           let t = 0.25 *. float_of_int i in
           (t, int_of_float (50.0 *. Float.abs (sin (t /. 7.0))))))
  in
  Alcotest.(check string) "noisy line"
    "4604436347762561579L 4637506250785364731L 4635954790919380664L 4639815792300044666L \
     228 306 appears-unstable"
    (show (bits noisy));
  Alcotest.(check string) "recurrent trace"
    "4602314639689860176L 4617431012927655260L 4629786894188750873L 4629716477070676202L \
     0 32 appears-stable"
    (show (bits recurrent))

let test_run_end_to_end () =
  let stable = Scenario.flash_crowd ~k:2 ~lambda:0.5 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let r = Classify.run ~horizon:1500.0 ~seed:3 stable in
  Alcotest.(check string) "stable swarm" "appears-stable" (Classify.verdict_to_string r.verdict);
  let transient = Scenario.flash_crowd ~k:2 ~lambda:2.0 ~us:0.2 ~mu:1.0 ~gamma:infinity in
  let r = Classify.run ~horizon:1500.0 ~seed:4 transient in
  Alcotest.(check string) "transient swarm" "appears-unstable"
    (Classify.verdict_to_string r.verdict)

let test_majority_votes () =
  let stable = Scenario.flash_crowd ~k:2 ~lambda:0.4 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  Alcotest.(check string) "majority stable" "appears-stable"
    (Classify.verdict_to_string (Classify.majority ~replications:3 ~horizon:800.0 ~seed:5 stable))

let test_initial_state_respected () =
  let stable = Scenario.flash_crowd ~k:2 ~lambda:0.4 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let club = P2p_pieceset.Pieceset.singleton 1 in
  let r = Classify.run ~horizon:1500.0 ~seed:6 ~initial:[ (club, 200) ] stable in
  (* a stable system recovers even from a 200-peer one-club start *)
  Alcotest.(check string) "recovers" "appears-stable" (Classify.verdict_to_string r.verdict)

let () =
  Alcotest.run "classify"
    [
      ( "classify",
        [
          Alcotest.test_case "linear growth" `Quick test_linear_growth_unstable;
          Alcotest.test_case "flat noise" `Quick test_flat_noise_stable;
          Alcotest.test_case "oscillating recurrent" `Quick test_returning_process_stable;
          Alcotest.test_case "too few samples" `Quick test_too_few_samples;
          Alcotest.test_case "fit bits pinned" `Quick test_fit_bits_pinned;
          Alcotest.test_case "end to end" `Quick test_run_end_to_end;
          Alcotest.test_case "majority" `Quick test_majority_votes;
          Alcotest.test_case "initial state" `Quick test_initial_state_respected;
        ] );
    ]
