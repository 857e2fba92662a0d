module Pieceset = P2p_pieceset.Pieceset
module Probe = P2p_obs.Probe

type config = {
  markov : Sim_markov.config;
  up : int;
  down : int;
  control : Ode.control;
}

let default_config ?(up = 1000) ?(down = 100) markov =
  { markov; up; down; control = Ode.default_control }

type switch = { at : float; to_fluid : bool; n : float }

type stats = {
  final_time : float;
  events : int;
  markov_events : int;
  fluid_steps : int;
  arrivals : float;
  transfers : float;
  completions : float;
  departures : float;
  aborted : float;
  lost : float;
  time_avg_n : float;
  max_n : int;
  final_n : float;
  visits_to_empty : int;
  truncated : bool;
  outage_time : float;
  switches : switch list;
  samples : (float * int) array;
}

(* Fluid densities -> integer type counts, deterministically: round the
   total, give each type the floor of its density, then hand the leftover
   units to the largest fractional parts (ties to the lower index).  The
   switch state is therefore a pure function of the densities — no rng,
   bit-identical across processes and --jobs counts. *)
let discretize densities =
  let d = Array.length densities in
  let total = Array.fold_left (fun acc v -> acc +. Float.max 0.0 v) 0.0 densities in
  let target = int_of_float (Float.round total) in
  let counts = Array.make d 0 in
  let floor_sum = ref 0 in
  let rem = Array.make d 0.0 in
  for i = 0 to d - 1 do
    let v = Float.max 0.0 densities.(i) in
    let f = int_of_float (Float.floor v) in
    counts.(i) <- f;
    floor_sum := !floor_sum + f;
    rem.(i) <- v -. Float.of_int f
  done;
  let deficit = target - !floor_sum in
  if deficit > 0 then begin
    let order = Array.init d (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = compare rem.(b) rem.(a) in
        if c <> 0 then c else compare a b)
      order;
    for j = 0 to Int.min deficit d - 1 do
      counts.(order.(j)) <- counts.(order.(j)) + 1
    done
  end;
  counts

let counts_to_initial counts =
  let acc = ref [] in
  Array.iteri (fun i c -> if c > 0 then acc := (Pieceset.of_index i, c) :: !acc) counts;
  List.rev !acc

let validate config =
  if config.up <= config.down then
    invalid_arg
      (Printf.sprintf "Sim_hybrid: up threshold (%d) must exceed down threshold (%d)" config.up
         config.down);
  if config.down < 0 then invalid_arg "Sim_hybrid: down threshold must be >= 0"

let run ?(probe = Probe.none) ?sample_every ?(max_events = 200_000_000) ~rng config ~horizon =
  validate config;
  let p = config.markov.Sim_markov.params in
  (* One grid of each kind and one fault clockwork for the whole logical
     run: every segment walks the grids on, the outage schedule spans
     segments, and the rng is split exactly once, here. *)
  let run0 =
    Engine.start ~probe ?sample_every ~rng ~faults:config.markov.Sim_markov.faults ~horizon ()
  in
  let fluid_cfg =
    {
      Sim_fluid.params = p;
      initial = [];
      faults = config.markov.Sim_markov.faults;
      control = config.control;
    }
  in
  let down_f = Float.of_int config.down in
  let samples = ref [] in
  let switches = ref [] in
  let markov_events = ref 0 in
  let fluid_steps = ref 0 in
  let arrivals = ref 0.0 in
  let transfers = ref 0.0 in
  let completions = ref 0.0 in
  let departures = ref 0.0 in
  let aborted = ref 0.0 in
  let lost = ref 0.0 in
  let visits_to_empty = ref 0 in
  let max_n = ref 0 in
  let weighted_avg = ref 0.0 in
  let truncated = ref false in
  let outage_time = ref 0.0 in
  let t = ref 0.0 in
  let segment_weight t0 t1 avg =
    let dur = t1 -. t0 in
    if dur > 0.0 && Float.is_finite avg then weighted_avg := !weighted_avg +. (avg *. dur)
  in
  (* Alternate segments until the horizon.  Time strictly advances in
     every segment (each consumes at least one event or one accepted
     step before its [until] can fire), so this terminates. *)
  let state = ref (`Stoch config.markov.Sim_markov.initial) in
  let final_densities = ref (Array.make (Fluid.dim p) 0.0) in
  let running = ref true in
  while !running do
    let resume = { run0 with Engine.t0 = !t } in
    match !state with
    | `Stoch _ when max_events - !markov_events <= 0 ->
        (* The global event budget is spent: truncate instead of walking
           another stochastic segment. *)
        truncated := true;
        running := false
    | `Stoch initial ->
        let cfg = { config.markov with Sim_markov.initial } in
        let budget = max_events - !markov_events in
        let stats, st =
          Sim_markov.run ~probe ~max_events:budget ~resume
            ~until:(fun ~time:_ ~n -> n >= config.up)
            ~rng cfg ~horizon
        in
        markov_events := !markov_events + stats.Sim_markov.events;
        arrivals := !arrivals +. Float.of_int stats.Sim_markov.arrivals;
        transfers := !transfers +. Float.of_int stats.Sim_markov.transfers;
        completions := !completions +. Float.of_int stats.Sim_markov.completions;
        departures := !departures +. Float.of_int stats.Sim_markov.departures;
        aborted := !aborted +. Float.of_int stats.Sim_markov.aborted_peers;
        lost := !lost +. Float.of_int stats.Sim_markov.lost_transfers;
        visits_to_empty := !visits_to_empty + stats.Sim_markov.visits_to_empty;
        max_n := Int.max !max_n stats.Sim_markov.max_n;
        segment_weight !t stats.Sim_markov.final_time stats.Sim_markov.time_avg_n;
        samples := stats.Sim_markov.samples :: !samples;
        outage_time := stats.Sim_markov.outage_time;
        final_densities := Fluid.of_state ~k:p.Params.k st;
        t := stats.Sim_markov.final_time;
        if stats.Sim_markov.truncated then begin
          truncated := true;
          running := false
        end
        else if stats.Sim_markov.stopped && !t < horizon then begin
          let n = Fluid.total !final_densities in
          switches := { at = !t; to_fluid = true; n } :: !switches;
          if probe.Probe.tracing then
            Probe.handoff probe ~time:!t ~fluid:true ~n;
          state := `Fluid (Array.copy !final_densities)
        end
        else running := false
    | `Fluid init ->
        let stats, final =
          Sim_fluid.run ~probe ~resume
            ~until:(fun ~time:_ ~total -> total <= down_f)
            ~init ~rng fluid_cfg ~horizon
        in
        fluid_steps := !fluid_steps + stats.Sim_fluid.steps;
        arrivals := !arrivals +. stats.Sim_fluid.arrivals;
        transfers := !transfers +. stats.Sim_fluid.transfers;
        completions := !completions +. stats.Sim_fluid.completions;
        departures := !departures +. stats.Sim_fluid.departures;
        aborted := !aborted +. stats.Sim_fluid.aborted_mass;
        lost := !lost +. stats.Sim_fluid.lost_mass;
        max_n := Int.max !max_n stats.Sim_fluid.max_n;
        segment_weight !t stats.Sim_fluid.final_time stats.Sim_fluid.time_avg_n;
        samples := stats.Sim_fluid.samples :: !samples;
        outage_time := stats.Sim_fluid.outage_time;
        final_densities := final;
        t := stats.Sim_fluid.final_time;
        if stats.Sim_fluid.truncated then begin
          truncated := true;
          running := false
        end
        else if stats.Sim_fluid.stopped && !t < horizon then begin
          let n = stats.Sim_fluid.final_n in
          switches := { at = !t; to_fluid = false; n } :: !switches;
          if probe.Probe.tracing then
            Probe.handoff probe ~time:!t ~fluid:false ~n;
          state := `Stoch (counts_to_initial (discretize final))
        end
        else running := false
  done;
  let final_time = !t in
  let span = final_time in
  let stats =
    {
      final_time;
      events = !markov_events + !fluid_steps;
      markov_events = !markov_events;
      fluid_steps = !fluid_steps;
      arrivals = !arrivals;
      transfers = !transfers;
      completions = !completions;
      departures = !departures;
      aborted = !aborted;
      lost = !lost;
      time_avg_n = (if span > 0.0 then !weighted_avg /. span else Float.nan);
      max_n = !max_n;
      final_n = Fluid.total !final_densities;
      visits_to_empty = !visits_to_empty;
      truncated = !truncated;
      outage_time = !outage_time;
      switches = List.rev !switches;
      samples = Array.concat (List.rev !samples);
    }
  in
  (stats, !final_densities)

let run_seeded ?probe ?sample_every ?max_events ~seed config ~horizon =
  let rng = P2p_prng.Rng.of_seed seed in
  run ?probe ?sample_every ?max_events ~rng config ~horizon
