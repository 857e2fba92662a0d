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

let of_samples samples =
  let n = Array.length samples in
  if n < 16 then invalid_arg "Classify.of_samples: need at least 16 samples";
  let second_half = Array.sub samples (n / 2) (n - (n / 2)) in
  let fit =
    P2p_stats.Regression.fit (Array.map (fun (t, v) -> (t, float_of_int v)) second_half)
  in
  let late = Array.sub samples (3 * n / 4) (n - (3 * n / 4)) in
  let late_minimum = Array.fold_left (fun acc (_, v) -> Int.min acc v) max_int late in
  let first_half = Array.sub samples 0 (n / 2) in
  let early_scale =
    Array.fold_left (fun acc (_, v) -> acc +. float_of_int v) 0.0 first_half
    /. float_of_int (Array.length first_half)
  in
  let mean_n =
    Array.fold_left (fun acc (_, v) -> acc +. float_of_int v) 0.0 samples /. float_of_int n
  in
  let _, final_n = samples.(n - 1) in
  let t0, _ = samples.(0) in
  let t1, _ = samples.(n - 1) in
  let span = t1 -. t0 in
  let t_stat = P2p_stats.Regression.slope_t_statistic fit in
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
