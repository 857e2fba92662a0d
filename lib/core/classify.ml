type verdict = Appears_stable | Appears_unstable | Inconclusive

let verdict_to_string = function
  | Appears_stable -> "appears-stable"
  | Appears_unstable -> "appears-unstable"
  | Inconclusive -> "inconclusive"

let pp_verdict fmt v = Format.pp_print_string fmt (verdict_to_string v)

type result = {
  verdict : verdict;
  growth_rate : float;
  growth_t_stat : float;
  late_minimum : int;
  early_scale : float;
  mean_n : float;
  final_n : int;
}

module Regression = P2p_stats.Regression

(* Every sum reads the points in place, in index order from 0.0. *)
let of_points points =
  let n = Regression.length points in
  if n < 16 then invalid_arg "Classify.of_samples: need at least 16 samples";
  let half = n / 2 in
  let fit = Regression.fit_points points ~pos:half ~len:(n - half) in
  let count i = int_of_float (Regression.y points i) in
  let late_minimum = ref max_int in
  for i = 3 * n / 4 to n - 1 do
    late_minimum := Int.min !late_minimum (count i)
  done;
  let late_minimum = !late_minimum in
  let sum_below m =
    let s = ref 0.0 in
    for i = 0 to m - 1 do
      s := !s +. Regression.y points i
    done;
    !s
  in
  let early_scale = sum_below half /. float_of_int half in
  let mean_n = sum_below n /. float_of_int n in
  let final_n = count (n - 1) in
  let t0 = Regression.x points 0 and t1 = Regression.x points (n - 1) in
  let span = t1 -. t0 in
  let t_stat = Regression.slope_t_statistic fit in
  (* Growth over the remaining half-horizon, relative to the scale the
     process already reached: transience means this dominates. *)
  let projected_growth = fit.slope *. (span /. 2.0) in
  let scale = Float.max early_scale 10.0 in
  let strongly_growing = t_stat > 6.0 && projected_growth > scale in
  let returns_low = float_of_int late_minimum < Float.max (0.5 *. scale) 20.0 in
  let flat = t_stat < 2.0 || projected_growth < 0.2 *. scale in
  let verdict =
    if strongly_growing && not returns_low then Appears_unstable
    else if returns_low || flat then Appears_stable
    else Inconclusive
  in
  {
    verdict;
    growth_rate = fit.slope;
    growth_t_stat = t_stat;
    late_minimum;
    early_scale;
    mean_n;
    final_n;
  }

let of_samples samples = of_points (Counts samples)

let run ?(horizon = 2000.0) ?(policy = Policy.random_useful) ?(initial = []) ~seed params =
  let config = { Sim_markov.params; policy; initial; faults = Faults.none } in
  let stats, _ = Sim_markov.run_seeded ~seed config ~horizon in
  of_samples stats.samples

let majority ?(replications = 3) ?horizon ?policy ~seed params =
  let votes = List.init replications (fun i -> (run ?horizon ?policy ~seed:(seed + (7919 * i)) params).verdict) in
  let count v = List.length (List.filter (( = ) v) votes) in
  let stable = count Appears_stable and unstable = count Appears_unstable in
  if stable > unstable && stable * 2 > replications then Appears_stable
  else if unstable > stable && unstable * 2 > replications then Appears_unstable
  else Inconclusive
