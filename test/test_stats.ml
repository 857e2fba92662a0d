(* Tests for the statistics substrate: Welford, time averages, regression,
   histograms, quantiles, and the small linear algebra kit. *)

module Welford = P2p_stats.Welford
module Timeavg = P2p_stats.Timeavg
module Regression = P2p_stats.Regression
module Histogram = P2p_stats.Histogram
module Quantile = P2p_stats.Quantile
module Linalg = P2p_stats.Linalg

let closef ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.8g got %.8g" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

(* ---- Welford ---- *)

let test_welford_against_direct () =
  let data = [ 1.5; -2.0; 3.25; 0.0; 7.5; 7.5; -1.0 |> Float.abs ] in
  let w = Welford.create () in
  List.iter (Welford.add w) data;
  let n = float_of_int (List.length data) in
  let mean = List.fold_left ( +. ) 0.0 data /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 data /. (n -. 1.0)
  in
  closef "mean" mean (Welford.mean w);
  closef "variance" var (Welford.variance w);
  Alcotest.(check int) "count" (List.length data) (Welford.count w)

let test_welford_empty () =
  let w = Welford.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Welford.mean w));
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Welford.variance w))

let test_welford_single () =
  let w = Welford.create () in
  Welford.add w 4.0;
  closef "mean" 4.0 (Welford.mean w);
  Alcotest.(check bool) "variance nan with one point" true (Float.is_nan (Welford.variance w))

let test_welford_minmax () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 3.0; -1.0; 8.0 ];
  closef "min" (-1.0) (Welford.min_value w);
  closef "max" 8.0 (Welford.max_value w)

let test_welford_merge () =
  let a = Welford.create () and b = Welford.create () and whole = Welford.create () in
  let xs = List.init 50 (fun i -> sin (float_of_int i)) in
  let ys = List.init 70 (fun i -> cos (float_of_int i) *. 3.0) in
  List.iter (Welford.add a) xs;
  List.iter (Welford.add b) ys;
  List.iter (Welford.add whole) (xs @ ys);
  let merged = Welford.merge a b in
  closef ~tol:1e-12 "merged mean" (Welford.mean whole) (Welford.mean merged);
  closef ~tol:1e-10 "merged variance" (Welford.variance whole) (Welford.variance merged)

(* Merging is associative (within float tolerance), so the runner may
   join per-domain accumulators in any grouping. *)
let test_welford_merge_associative () =
  let mk seed =
    let w = Welford.create () in
    let rng = P2p_prng.Rng.of_seed seed in
    for _ = 1 to 50 do
      Welford.add w (P2p_prng.Rng.float rng)
    done;
    w
  in
  let a = mk 10 and b = mk 20 and c = mk 30 in
  let l = Welford.merge (Welford.merge a b) c in
  let r = Welford.merge a (Welford.merge b c) in
  Alcotest.(check int) "count" (Welford.count l) (Welford.count r);
  Alcotest.(check (float 1e-12)) "mean" (Welford.mean l) (Welford.mean r);
  Alcotest.(check (float 1e-9)) "variance" (Welford.variance l) (Welford.variance r)

(* Merge algebra the replication runner relies on: empty is an exact
   identity, order does not matter (within float tolerance), and merging
   disjoint halves reproduces the single-pass result. *)

let welford_of xs =
  let w = Welford.create () in
  List.iter (Welford.add w) xs;
  w

let test_welford_merge_empty_identity () =
  let xs = List.init 31 (fun i -> exp (sin (float_of_int i))) in
  let a = welford_of xs and e = Welford.create () in
  List.iter
    (fun (name, m) ->
      Alcotest.(check int) (name ^ ": count") (Welford.count a) (Welford.count m);
      Alcotest.(check bool) (name ^ ": mean exact") true
        (Float.equal (Welford.mean a) (Welford.mean m));
      Alcotest.(check bool) (name ^ ": variance exact") true
        (Float.equal (Welford.variance a) (Welford.variance m));
      Alcotest.(check bool) (name ^ ": min exact") true
        (Float.equal (Welford.min_value a) (Welford.min_value m));
      Alcotest.(check bool) (name ^ ": max exact") true
        (Float.equal (Welford.max_value a) (Welford.max_value m)))
    [ ("right identity", Welford.merge a e); ("left identity", Welford.merge e a) ];
  let ee = Welford.merge e (Welford.create ()) in
  Alcotest.(check int) "empty + empty count" 0 (Welford.count ee);
  Alcotest.(check bool) "empty + empty mean nan" true (Float.is_nan (Welford.mean ee))

let test_welford_merge_order_insensitive () =
  let parts =
    List.init 4 (fun p -> List.init (10 + (7 * p)) (fun i -> cos (float_of_int ((13 * p) + i))))
  in
  let accs = List.map welford_of parts in
  let fwd = List.fold_left Welford.merge (Welford.create ()) accs in
  let rev = List.fold_left Welford.merge (Welford.create ()) (List.rev accs) in
  Alcotest.(check int) "count" (Welford.count fwd) (Welford.count rev);
  closef ~tol:1e-12 "mean" (Welford.mean fwd) (Welford.mean rev);
  closef ~tol:1e-12 "variance" (Welford.variance fwd) (Welford.variance rev);
  Alcotest.(check bool) "min exact" true
    (Float.equal (Welford.min_value fwd) (Welford.min_value rev));
  Alcotest.(check bool) "max exact" true
    (Float.equal (Welford.max_value fwd) (Welford.max_value rev))

let test_welford_merge_halves_vs_single_pass () =
  let xs = List.init 200 (fun i -> (1e6 +. sin (float_of_int i)) *. 0.5) in
  let n = List.length xs / 2 in
  let halves = Welford.merge (welford_of (List.filteri (fun i _ -> i < n) xs))
      (welford_of (List.filteri (fun i _ -> i >= n) xs)) in
  let whole = welford_of xs in
  closef ~tol:1e-12 "mean" (Welford.mean whole) (Welford.mean halves);
  closef ~tol:1e-12 "variance" (Welford.variance whole) (Welford.variance halves);
  Alcotest.(check int) "count" (Welford.count whole) (Welford.count halves)

let test_welford_ci () =
  let w = Welford.create () in
  for i = 1 to 100 do
    Welford.add w (float_of_int (i mod 10))
  done;
  let lo, hi = Welford.confidence_interval w ~z:1.96 in
  Alcotest.(check bool) "CI brackets mean" true (lo < Welford.mean w && Welford.mean w < hi)

(* ---- Timeavg ---- *)

let test_timeavg_piecewise () =
  let t = Timeavg.create () in
  Timeavg.observe t ~time:0.0 ~value:2.0;
  Timeavg.observe t ~time:1.0 ~value:4.0;
  (* 2.0 held 1s *)
  Timeavg.close t ~time:3.0;
  (* 4.0 held 2s *)
  closef "time average" ((2.0 +. 8.0) /. 3.0) (Timeavg.average t);
  closef "elapsed" 3.0 (Timeavg.elapsed t)

let test_timeavg_empty () =
  let t = Timeavg.create () in
  Alcotest.(check bool) "nan before data" true (Float.is_nan (Timeavg.average t))

let test_timeavg_reset () =
  let t = Timeavg.create () in
  Timeavg.observe t ~time:0.0 ~value:100.0;
  Timeavg.observe t ~time:10.0 ~value:1.0;
  Timeavg.reset t ~time:10.0;
  Timeavg.close t ~time:20.0;
  closef "after reset only new segment" 1.0 (Timeavg.average t)

let test_timeavg_single_sample () =
  (* one observation and no elapsed time: the mean is undefined, not 0 *)
  let t = Timeavg.create () in
  Timeavg.observe t ~time:0.0 ~value:7.0;
  Timeavg.close t ~time:0.0;
  Alcotest.(check bool) "nan with zero elapsed" true (Float.is_nan (Timeavg.average t));
  closef "elapsed zero" 0.0 (Timeavg.elapsed t);
  (* once any time passes, a single sample's average is that value *)
  Timeavg.close t ~time:5.0;
  closef "single value held" 7.0 (Timeavg.average t);
  closef "elapsed" 5.0 (Timeavg.elapsed t)

let test_timeavg_close_before_observe () =
  (* closing before the first observation must not count phantom time at
     the (unset) initial value *)
  let t = Timeavg.create () in
  Timeavg.close t ~time:10.0;
  Alcotest.(check bool) "still nan" true (Float.is_nan (Timeavg.average t));
  closef "no time accrued" 0.0 (Timeavg.elapsed t);
  (* a first observation after the idle gap starts the clock there *)
  Timeavg.observe t ~time:10.0 ~value:3.0;
  Timeavg.close t ~time:12.0;
  closef "only post-observation time" 3.0 (Timeavg.average t);
  closef "elapsed from first observation" 2.0 (Timeavg.elapsed t)

let test_timeavg_zero_dwell () =
  (* two observations at the same instant: the first held for 0 time and
     must carry no weight *)
  let t = Timeavg.create () in
  Timeavg.observe t ~time:0.0 ~value:2.0;
  Timeavg.observe t ~time:0.0 ~value:4.0;
  Timeavg.close t ~time:1.0;
  closef "zero-dwell value ignored" 4.0 (Timeavg.average t)

let test_timeavg_backwards () =
  let t = Timeavg.create () in
  Timeavg.observe t ~time:5.0 ~value:1.0;
  Alcotest.(check bool) "raises on time regression" true
    (try
       Timeavg.observe t ~time:1.0 ~value:2.0;
       false
     with Invalid_argument _ -> true)

(* ---- Regression ---- *)

let test_regression_exact_line () =
  let pts = Array.init 20 (fun i -> (float_of_int i, 3.0 +. (2.0 *. float_of_int i))) in
  let fit = Regression.fit pts in
  closef "slope" 2.0 fit.slope;
  closef "intercept" 3.0 fit.intercept;
  closef "r2" 1.0 fit.r_squared;
  closef ~tol:1e-6 "stderr 0 on exact fit" 0.0 fit.slope_stderr

let test_regression_noisy () =
  let rng = P2p_prng.Rng.of_seed 4 in
  let pts =
    Array.init 500 (fun i ->
        let x = float_of_int i /. 10.0 in
        (x, 1.0 +. (0.5 *. x) +. P2p_prng.Dist.standard_normal rng))
  in
  let fit = Regression.fit pts in
  Alcotest.(check bool) "slope near 0.5" true (Float.abs (fit.slope -. 0.5) < 0.05);
  Alcotest.(check bool) "t-stat large" true (Regression.slope_t_statistic fit > 10.0)

let test_regression_flat_noise () =
  let rng = P2p_prng.Rng.of_seed 5 in
  let pts =
    Array.init 500 (fun i -> (float_of_int i, P2p_prng.Dist.standard_normal rng))
  in
  let fit = Regression.fit pts in
  Alcotest.(check bool) "no significant slope" true
    (Float.abs (Regression.slope_t_statistic fit) < 4.0)

let test_regression_too_few () =
  Alcotest.(check bool) "needs 3 points" true
    (try
       ignore (Regression.fit [| (0.0, 0.0); (1.0, 1.0) |]);
       false
     with Invalid_argument _ -> true)

(* ---- Histogram ---- *)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -1.0; 10.0; 25.0 ];
  Alcotest.(check int) "count" 7 (Histogram.count h);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  Alcotest.(check int) "bin 0" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (Histogram.bin_count h 9)

let test_histogram_mean_exact () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  List.iter (Histogram.add h) [ 0.1; 0.2; 0.3 ];
  closef "exact mean" 0.2 (Histogram.mean h)

let test_histogram_tail () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Histogram.add h) [ 1.0; 2.0; 8.5; 9.5; 100.0 ];
  closef "fraction >= 8" (3.0 /. 5.0) (Histogram.fraction_at_or_above h 8.0)

(* Merge: the pooled-histogram path of the replication runner. *)

let hist_of xs =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Histogram.add h) xs;
  h

let check_hist_equal name a b =
  Alcotest.(check int) (name ^ ": count") (Histogram.count a) (Histogram.count b);
  Alcotest.(check int) (name ^ ": underflow") (Histogram.underflow a) (Histogram.underflow b);
  Alcotest.(check int) (name ^ ": overflow") (Histogram.overflow a) (Histogram.overflow b);
  for i = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "%s: bin %d" name i)
      (Histogram.bin_count a i) (Histogram.bin_count b i)
  done

let test_histogram_merge_binwise () =
  let xs = [ 0.5; 3.3; -2.0; 11.0 ] and ys = [ 3.4; 9.9; 9.8; -1.0; 0.6 ] in
  let m = Histogram.merge (hist_of xs) (hist_of ys) in
  check_hist_equal "pooled = single pass" m (hist_of (xs @ ys));
  closef "pooled mean exact" (Histogram.mean (hist_of (xs @ ys))) (Histogram.mean m)

let test_histogram_merge_empty_identity () =
  let a = hist_of [ 1.0; 2.5; 7.7; 42.0 ] in
  check_hist_equal "right identity" a (Histogram.merge a (hist_of []));
  check_hist_equal "left identity" a (Histogram.merge (hist_of []) a)

let test_histogram_merge_commutative () =
  let a = hist_of [ 0.1; 4.9; 12.0 ] and b = hist_of [ 2.2; 2.3; -5.0 ] in
  check_hist_equal "a+b = b+a" (Histogram.merge a b) (Histogram.merge b a);
  (* counts are integers, so commutativity is exact; the mean accumulator
     commutes too because IEEE addition is commutative *)
  Alcotest.(check bool) "mean commutes exactly" true
    (Float.equal (Histogram.mean (Histogram.merge a b)) (Histogram.mean (Histogram.merge b a)))

let test_histogram_merge_layout_mismatch () =
  let a = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  let raises h = try ignore (Histogram.merge a h); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "different bins" true
    (raises (Histogram.create ~lo:0.0 ~hi:10.0 ~bins:6));
  Alcotest.(check bool) "different lo" true
    (raises (Histogram.create ~lo:1.0 ~hi:10.0 ~bins:5));
  Alcotest.(check bool) "different hi" true
    (raises (Histogram.create ~lo:0.0 ~hi:20.0 ~bins:5))

(* ---- Quantile ---- *)

let test_quantile_order_stats () =
  let q = Quantile.create () in
  List.iter (Quantile.add q) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  closef "median" 3.0 (Quantile.median q);
  closef "min" 1.0 (Quantile.quantile q 0.0);
  closef "max" 5.0 (Quantile.quantile q 1.0);
  closef "q25" 2.0 (Quantile.quantile q 0.25)

let test_quantile_interpolation () =
  let q = Quantile.create () in
  List.iter (Quantile.add q) [ 0.0; 10.0 ];
  closef "q30 interpolates" 3.0 (Quantile.quantile q 0.3)

let test_quantile_add_after_query () =
  let q = Quantile.create () in
  List.iter (Quantile.add q) [ 1.0; 2.0 ];
  ignore (Quantile.median q);
  Quantile.add q 3.0;
  closef "median updates" 2.0 (Quantile.median q);
  Alcotest.(check int) "count" 3 (Quantile.count q)

(* ---- Linalg ---- *)

let test_solve_known_system () =
  (* 2x + y = 5; x - y = 1  =>  x = 2, y = 1 *)
  let a = [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let x = Linalg.solve a [| 5.0; 1.0 |] in
  closef "x" 2.0 x.(0);
  closef "y" 1.0 x.(1)

let test_solve_needs_pivoting () =
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Linalg.solve a [| 3.0; 7.0 |] in
  closef "x" 7.0 x.(0);
  closef "y" 3.0 x.(1)

let test_solve_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Linalg.solve a [| 1.0; 2.0 |]);
       false
     with Failure _ -> true)

let test_inverse () =
  let a = [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let inv = Linalg.inverse a in
  let prod = Linalg.mat_mul a inv in
  let id = Linalg.identity 2 in
  for i = 0 to 1 do
    for j = 0 to 1 do
      closef ~tol:1e-10 "A A^-1 = I" id.(i).(j) prod.(i).(j)
    done
  done

let test_spectral_radius_diagonal () =
  closef ~tol:1e-6 "diag" 3.0 (Linalg.spectral_radius [| [| 3.0; 0.0 |]; [| 0.0; 2.0 |] |])

let test_spectral_radius_rank_one () =
  (* The paper's ABS mean matrix is rank one: rho = trace. *)
  let m = [| [| 0.2; 2.0 |]; [| 0.05; 0.5 |] |] in
  closef ~tol:1e-6 "rank-one trace" 0.7 (Linalg.spectral_radius m)

let test_matvec_transpose () =
  let a = [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let v = Linalg.mat_vec a [| 1.0; 1.0; 1.0 |] in
  closef "row sums" 6.0 v.(0);
  closef "row sums" 15.0 v.(1);
  let at = Linalg.transpose a in
  Alcotest.(check (pair int int)) "transpose dims" (3, 2) (Linalg.dims at);
  closef "transposed entry" 6.0 at.(2).(1)

(* ---- batch means (appended suite) ---- *)

module Batch_means = P2p_stats.Batch_means

let test_batch_means_iid () =
  (* iid normal noise around 5: the 95% interval should cover the truth
     about 95% of the time and shrink with more data. *)
  let rng = P2p_prng.Rng.of_seed 31 in
  let make n =
    Array.init n (fun i -> (float_of_int i, 5.0 +. P2p_prng.Dist.standard_normal rng))
  in
  let trials = 60 in
  let covered = ref 0 in
  for _ = 1 to trials do
    if Batch_means.contains (Batch_means.of_samples (make 400)) 5.0 then incr covered
  done;
  Alcotest.(check bool)
    (Printf.sprintf "coverage %d/%d" !covered trials)
    true
    (!covered >= trials * 85 / 100);
  let small = Batch_means.of_samples (make 400) in
  let large = Batch_means.of_samples (make 40_000) in
  Alcotest.(check bool) "covers truth (large)" true (Batch_means.contains large 5.0);
  Alcotest.(check bool) "width shrinks" true (large.half_width < small.half_width /. 3.0)

let test_batch_means_correlated_wider () =
  (* strongly autocorrelated AR(1) signal: batch means must widen the
     interval relative to the naive iid standard error. *)
  let rng = P2p_prng.Rng.of_seed 32 in
  let n = 20_000 in
  let x = ref 0.0 in
  let samples =
    Array.init n (fun i ->
        x := (0.995 *. !x) +. P2p_prng.Dist.standard_normal rng;
        (float_of_int i, !x))
  in
  let est = Batch_means.of_samples samples in
  let w = P2p_stats.Welford.create () in
  Array.iter (fun (_, v) -> P2p_stats.Welford.add w v) samples;
  let naive = 1.96 *. P2p_stats.Welford.std_error w in
  Alcotest.(check bool)
    (Printf.sprintf "batch width %.3f > naive %.3f" est.half_width naive)
    true (est.half_width > naive)

let test_batch_means_validation () =
  Alcotest.(check bool) "too few samples" true
    (try
       ignore (Batch_means.of_samples (Array.init 10 (fun i -> (float_of_int i, 0.0))));
       false
     with Invalid_argument _ -> true)

let test_batch_means_warmup_dropped () =
  (* enormous warm-up transient must not contaminate the estimate *)
  let samples =
    Array.init 1000 (fun i ->
        (float_of_int i, if i < 200 then 1000.0 else 2.0))
  in
  let est = Batch_means.of_samples ~warmup_fraction:0.25 samples in
  Alcotest.(check (float 1e-9)) "transient ignored" 2.0 est.mean

let test_batch_means_degenerate_series () =
  (* the shapes a probe grid can produce at the edges: an empty series
     (horizon 0) and a single sample (probe interval longer than the run)
     must raise, not return a confident nonsense interval *)
  let raises samples =
    try
      ignore (Batch_means.of_samples ~warmup_fraction:0.0 samples);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty series raises" true (raises [||]);
  Alcotest.(check bool) "single sample raises" true (raises [| (0.0, 5.0) |]);
  Alcotest.(check bool) "one sample per batch is still too few" true
    (raises (Array.init 16 (fun i -> (float_of_int i, 1.0))))

let test_batch_means_minimum_viable () =
  (* exactly 2 samples per batch with no warm-up is the documented floor:
     it must produce a finite interval, mean equal to the grand mean *)
  let samples = Array.init 32 (fun i -> (float_of_int i, float_of_int (i mod 4))) in
  let est = Batch_means.of_samples ~warmup_fraction:0.0 ~batches:16 samples in
  closef "grand mean" 1.5 est.mean;
  Alcotest.(check int) "batches" 16 est.batches;
  Alcotest.(check bool) "finite width" true (Float.is_finite est.half_width)

let () =
  Alcotest.run "stats"
    [

      ( "welford",
        [
          Alcotest.test_case "against direct" `Quick test_welford_against_direct;
          Alcotest.test_case "empty" `Quick test_welford_empty;
          Alcotest.test_case "single" `Quick test_welford_single;
          Alcotest.test_case "minmax" `Quick test_welford_minmax;
          Alcotest.test_case "merge" `Quick test_welford_merge;
          Alcotest.test_case "merge empty identity" `Quick test_welford_merge_empty_identity;
          Alcotest.test_case "merge order insensitive" `Quick test_welford_merge_order_insensitive;
          Alcotest.test_case "merge halves = single pass" `Quick
            test_welford_merge_halves_vs_single_pass;
          Alcotest.test_case "merge associative" `Quick test_welford_merge_associative;
          Alcotest.test_case "confidence interval" `Quick test_welford_ci;
        ] );
      ( "timeavg",
        [
          Alcotest.test_case "piecewise" `Quick test_timeavg_piecewise;
          Alcotest.test_case "empty" `Quick test_timeavg_empty;
          Alcotest.test_case "single sample" `Quick test_timeavg_single_sample;
          Alcotest.test_case "close before observe" `Quick test_timeavg_close_before_observe;
          Alcotest.test_case "zero dwell" `Quick test_timeavg_zero_dwell;
          Alcotest.test_case "reset" `Quick test_timeavg_reset;
          Alcotest.test_case "time regression" `Quick test_timeavg_backwards;
        ] );
      ( "regression",
        [
          Alcotest.test_case "exact line" `Quick test_regression_exact_line;
          Alcotest.test_case "noisy line" `Quick test_regression_noisy;
          Alcotest.test_case "flat noise" `Quick test_regression_flat_noise;
          Alcotest.test_case "too few points" `Quick test_regression_too_few;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "mean exact" `Quick test_histogram_mean_exact;
          Alcotest.test_case "tail" `Quick test_histogram_tail;
          Alcotest.test_case "merge bin-wise" `Quick test_histogram_merge_binwise;
          Alcotest.test_case "merge empty identity" `Quick test_histogram_merge_empty_identity;
          Alcotest.test_case "merge commutative" `Quick test_histogram_merge_commutative;
          Alcotest.test_case "merge layout mismatch" `Quick test_histogram_merge_layout_mismatch;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "order statistics" `Quick test_quantile_order_stats;
          Alcotest.test_case "interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "add after query" `Quick test_quantile_add_after_query;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "solve" `Quick test_solve_known_system;
          Alcotest.test_case "pivoting" `Quick test_solve_needs_pivoting;
          Alcotest.test_case "singular" `Quick test_solve_singular;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "spectral radius diag" `Quick test_spectral_radius_diagonal;
          Alcotest.test_case "spectral radius rank one" `Quick test_spectral_radius_rank_one;
          Alcotest.test_case "matvec/transpose" `Quick test_matvec_transpose;
        ] );
    
      ( "batch-means",
        [
          Alcotest.test_case "iid coverage" `Quick test_batch_means_iid;
          Alcotest.test_case "correlated wider" `Quick test_batch_means_correlated_wider;
          Alcotest.test_case "validation" `Quick test_batch_means_validation;
          Alcotest.test_case "warmup" `Quick test_batch_means_warmup_dropped;
          Alcotest.test_case "degenerate series" `Quick test_batch_means_degenerate_series;
          Alcotest.test_case "minimum viable" `Quick test_batch_means_minimum_viable;
        ] );
    ]
