module Pieceset = P2p_pieceset.Pieceset
module Probe = P2p_obs.Probe

type config = {
  params : Params.t;
  initial : (Pieceset.t * float) list;
  faults : Faults.t;
  control : Ode.control;
}

let default_config params =
  { params; initial = []; faults = Faults.none; control = Ode.default_control }

type stats = {
  final_time : float;
  steps : int;
  rejected_steps : int;
  rhs_evals : int;
  arrivals : float;
  transfers : float;
  completions : float;
  departures : float;
  aborted_mass : float;
  lost_mass : float;
  time_avg_n : float;
  max_n : int;
  final_n : float;
  truncated : bool;
  stopped : bool;
  outage_time : float;
  samples : (float * int) array;
}

let initial_vector (p : Params.t) initial =
  let d = Fluid.dim p in
  let x = Array.make (d + Fluid.aug_slots) 0.0 in
  List.iter
    (fun (set, mass) ->
      if not (Float.is_finite mass) || mass < 0.0 then
        invalid_arg "Sim_fluid: initial masses must be finite nonnegative";
      let i = Pieceset.to_index set in
      if i >= d then invalid_arg "Sim_fluid: initial piece set outside the collection";
      x.(i) <- x.(i) +. mass)
    initial;
  x

let round_nonneg v = if v <= 0.0 then 0 else int_of_float (Float.round v)

let run ?probe ?sample_every ?resume ?until ?init ?max_steps ~rng config ~horizon =
  let p = config.params in
  let d = Fluid.dim p in
  let control =
    match max_steps with None -> config.control | Some max_steps -> { config.control with max_steps }
  in
  let y0 =
    match init with
    | None -> initial_vector p config.initial
    | Some densities ->
        if Array.length densities <> d then invalid_arg "Sim_fluid: init has wrong size";
        let x = Array.make (d + Fluid.aug_slots) 0.0 in
        Array.blit densities 0 x 0 d;
        x
  in
  let abort_rate = config.faults.Faults.abort_rate in
  let loss_factor = 1.0 -. config.faults.Faults.loss_prob in
  let common, (session, final) =
    Engine.drive_continuous ?probe ?sample_every ?resume ~name:"sim_fluid" ~rng
      ~faults:config.faults ~horizon (fun h ->
        let frun = Engine.faults h in
        let kernel = Rate.kernel ~k:p.k in
        let rhs _t y =
          let dy = Array.make (d + Fluid.aug_slots) 0.0 in
          let us_scale = if Faults.seed_up frun then 1.0 else 0.0 in
          Fluid.drift_into p ~kernel ~us_scale ~abort_rate ~loss_factor y dy;
          dy
        in
        let session =
          Ode.session ~control ~f:rhs ~t0:(Engine.start_time h) ~y0 ()
        in
        let pop_of y =
          let acc = ref 0.0 in
          for i = 0 to d - 1 do
            acc := !acc +. Float.max 0.0 y.(i)
          done;
          !acc
        in
        (* The dense-output state at a grid point inside the last step. *)
        let view = ref None in
        let live () = match !view with Some y -> y | None -> Ode.state session in
        let pop () = pop_of (live ()) in
        let ode_until = Option.map (fun pred ~t ~y -> pred ~time:t ~total:(pop_of y)) until in
        let c_advance ~to_ ~on_step =
          let on_step s =
            on_step ~t_end:(Ode.time s) ~view:(fun g -> view := Some (Ode.dense_eval s g));
            view := None
          in
          match Ode.advance ?until:ode_until ~on_step session ~to_ with
          | Ode.Reached -> `Reached
          | Ode.Stopped t -> `Stopped t
          | Ode.Step_limit -> `Step_limit
        in
        let c_probe_sample ~time =
          let y = live () in
          let count_of set = round_nonneg y.(Pieceset.to_index set) in
          let piece_counts =
            Array.init p.k (fun piece ->
                let acc = ref 0.0 in
                for c = 0 to d - 1 do
                  if c land (1 lsl piece) <> 0 then acc := !acc +. Float.max 0.0 y.(c)
                done;
                round_nonneg !acc)
          in
          Probe.sample ~time ~k:p.k ~n:(round_nonneg (pop ())) ~count_of ~piece_counts
        in
        let c_time_average ~until:t_end =
          let y = Ode.state session in
          let t0 = Engine.start_time h in
          let span = t_end -. t0 in
          if span <= 0.0 then Float.nan
          else begin
            (* The integrator carries ∫n dt exactly; a truncated run is
               frozen from the last integration time to the horizon. *)
            let integral = y.(d + Fluid.aug_pop_integral) in
            let frozen =
              let tail = t_end -. Ode.time session in
              if tail > 0.0 then pop () *. tail else 0.0
            in
            (integral +. frozen) /. span
          end
        in
        let c_finish ~time:_ =
          let y = Ode.state session in
          let c = Engine.counters h in
          c.Engine.events <- Ode.steps session;
          c.Engine.arrivals <- round_nonneg y.(d + Fluid.aug_arrivals);
          c.Engine.transfers <- round_nonneg y.(d + Fluid.aug_transfers);
          c.Engine.completions <- round_nonneg y.(d + Fluid.aug_completions);
          c.Engine.departures <- round_nonneg y.(d + Fluid.aug_departures);
          c.Engine.aborted <- round_nonneg y.(d + Fluid.aug_aborted);
          c.Engine.lost <- round_nonneg y.(d + Fluid.aug_lost)
        in
        let model =
          {
            Engine.c_advance;
            c_population = pop;
            c_extra_sample = (fun ~time:_ -> ());
            c_probe_sample;
            c_toggled = (fun () -> Ode.set_rhs session rhs);
            c_time_average;
            c_finish;
          }
        in
        (model, (session, fun () -> Ode.state session)))
  in
  let y = final () in
  let final_state = Array.sub y 0 d in
  Fluid.clamp_nonnegative final_state;
  let stats =
    {
      final_time = common.Engine.final_time;
      steps = Ode.steps session;
      rejected_steps = Ode.rejected session;
      rhs_evals = Ode.evals session;
      arrivals = Float.max 0.0 y.(d + Fluid.aug_arrivals);
      transfers = Float.max 0.0 y.(d + Fluid.aug_transfers);
      completions = Float.max 0.0 y.(d + Fluid.aug_completions);
      departures = Float.max 0.0 y.(d + Fluid.aug_departures);
      aborted_mass = Float.max 0.0 y.(d + Fluid.aug_aborted);
      lost_mass = Float.max 0.0 y.(d + Fluid.aug_lost);
      time_avg_n = common.Engine.time_avg_n;
      max_n = common.Engine.max_n;
      final_n = Fluid.total final_state;
      truncated = common.Engine.truncated;
      stopped = common.Engine.stopped;
      outage_time = common.Engine.outage_time;
      samples = common.Engine.samples;
    }
  in
  (stats, final_state)

let run_seeded ?probe ?sample_every ?resume ?until ?init ?max_steps ~seed config ~horizon =
  let rng = P2p_prng.Rng.of_seed seed in
  run ?probe ?sample_every ?resume ?until ?init ?max_steps ~rng config ~horizon
