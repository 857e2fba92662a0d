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

type layout = Types | Orbits of int

type stats = {
  layout : layout;
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

(* Faults act on every piece alike, so invariance is a property of the
   arrival rates and the initial masses: the first piece both fix. *)
let layout (config : config) =
  let p = config.params in
  let arrivals = Array.to_list p.arrivals in
  let fits piece =
    Fluid.invariant ~k:p.k ~piece arrivals && Fluid.invariant ~k:p.k ~piece config.initial
  in
  match List.find_opt fits (List.init p.k Fun.id) with
  | Some piece -> Orbits piece
  | None -> Types

let dense_max_k = 16

(* The starting state in [d] densities plus the augmented tail; [slot]
   maps a piece set to its density. *)
let initial_vector (p : Params.t) ~d ~slot initial =
  let x = Array.make (d + Fluid.aug_slots) 0.0 in
  let full = Params.full_set p in
  List.iter
    (fun (set, mass) ->
      if not (Float.is_finite mass) || mass < 0.0 then
        invalid_arg "Sim_fluid: initial masses must be finite nonnegative";
      if not (Pieceset.subset set full) then
        invalid_arg "Sim_fluid: initial piece set outside the collection";
      let i = slot set in
      x.(i) <- x.(i) +. mass)
    initial;
  x

let round_nonneg v = if v <= 0.0 then 0 else int_of_float (Float.round v)

let run ?probe ?sample_every ?resume ?until ?init ?max_steps ~rng config ~horizon =
  let p = config.params in
  let layout = match init with Some _ -> Types | None -> layout config in
  let orbits = match layout with Orbits piece -> Some (Fluid.orbits p ~piece) | Types -> None in
  let d = match orbits with Some _ -> 2 * p.k | None -> Fluid.dim p in
  let control =
    match max_steps with None -> config.control | Some max_steps -> { config.control with max_steps }
  in
  let y0 =
    match (init, layout) with
    | None, Types -> initial_vector p ~d ~slot:Pieceset.to_index config.initial
    | None, Orbits piece ->
        initial_vector p ~d ~slot:(Fluid.orbit_index ~k:p.k ~piece) config.initial
    | Some densities, _ ->
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
        let drift =
          match orbits with
          | Some o -> Fluid.orbit_drift_into o p ~abort_rate ~loss_factor
          | None -> Fluid.drift_into p ~kernel:(Rate.kernel ~k:p.k) ~abort_rate ~loss_factor
        in
        let rhs _t y =
          let dy = Array.make (d + Fluid.aug_slots) 0.0 in
          drift ~us_scale:(if Faults.seed_up frun then 1.0 else 0.0) y dy;
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
          let count_of, piece_counts =
            match orbits with
            | Some o ->
                ( (fun set -> round_nonneg (Fluid.type_density o y set)),
                  Array.init p.k (fun piece -> round_nonneg (Fluid.piece_mass o y piece)) )
            | None ->
                ( (fun set -> round_nonneg y.(Pieceset.to_index set)),
                  Array.init p.k (fun piece ->
                      let acc = ref 0.0 in
                      for c = 0 to d - 1 do
                        if c land (1 lsl piece) <> 0 then acc := !acc +. Float.max 0.0 y.(c)
                      done;
                      round_nonneg !acc) )
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
      layout;
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
  let densities =
    match orbits with
    | None -> final_state
    | Some o -> if p.k <= dense_max_k then Fluid.orbit_densities o final_state else [||]
  in
  (stats, densities)

let run_seeded ?probe ?sample_every ?resume ?until ?init ?max_steps ~seed config ~horizon =
  let rng = P2p_prng.Rng.of_seed seed in
  run ?probe ?sample_every ?resume ?until ?init ?max_steps ~rng config ~horizon

(* One orbit session, read at T/2 and carried on to T. *)
let one_club_slope ?(horizon = 400.0) ~mass (p : Params.t) ~piece =
  if not (Fluid.invariant ~k:p.k ~piece (Array.to_list p.arrivals)) then None
  else begin
    let o = Fluid.orbits p ~piece and d = 2 * p.k in
    let y0 = Array.make d 0.0 in
    y0.(Fluid.orbit_index ~k:p.k ~piece (Pieceset.remove piece (Params.full_set p))) <- mass;
    let f _t z =
      let dz = Array.make d 0.0 in
      Fluid.orbit_drift_into o p ~us_scale:1.0 ~abort_rate:0.0 ~loss_factor:1.0 z dz;
      dz
    in
    let session = Ode.session ~control:(Ode.control ~rtol:1e-10 ~atol:1e-6 ()) ~f ~t0:0.0 ~y0 () in
    let n_at t =
      ignore (Ode.advance session ~to_:t);
      Array.fold_left (fun acc v -> acc +. Float.max 0.0 v) 0.0 (Ode.state session)
    in
    let half = horizon /. 2.0 in
    let n_half = n_at half in
    Some ((n_at horizon -. n_half) /. half)
  end
