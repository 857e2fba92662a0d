module Pieceset = P2p_pieceset.Pieceset

type trajectory = {
  times : float array;
  totals : float array;
  states : float array array;
}

let dim (p : Params.t) = 1 lsl p.k

(* Augmented tail appended after the [dim p] type densities when the
   right-hand side is asked to track cumulative flows: the integral of
   each event-rate band, so the fluid backend's counters are exact ODE
   outputs instead of post-hoc sums. *)
let aug_slots = 7
let aug_arrivals = 0
let aug_transfers = 1
let aug_completions = 2
let aug_departures = 3
let aug_aborted = 4
let aug_lost = 5
let aug_pop_integral = 6

let of_state ~k state =
  let x = Array.make (1 lsl k) 0.0 in
  State.iter state (fun c v -> x.(Pieceset.to_index c) <- float_of_int v);
  x

let total x = Array.fold_left ( +. ) 0.0 x

let total_types x d =
  let acc = ref 0.0 in
  for i = 0 to d - 1 do
    acc := !acc +. x.(i)
  done;
  !acc

(* The raw mean-field RHS divides per-type flows by the population [n];
   at the origin (empty swarm) that ratio is 0/0 and the exact dynamics
   have a power-law boundary layer the error controller cannot step
   through.  Flooring the divisor at [n_floor] makes the RHS Lipschitz
   there: flows scale down linearly once the population drops below a
   nano-peer, which no trajectory of interest ever resolves, and the
   floor is exact identity for any [n >= n_floor].  The tests hold this
   RHS to the generator drift within 1e-9 on integer-count states, and
   [Rate.gammas] to a compensated per-(C, i) scan within its rounding
   bound. *)
let n_floor = 1e-9

(* The full right-hand side, shared by the plain [derivative] (nominal
   parameters) and the fluid simulator (fault-modulated, augmented, and
   owning its [kernel] so no call allocates). *)
let drift_into p ?(kernel = Rate.kernel ~k:p.Params.k) ~us_scale ~abort_rate ~loss_factor x dx =
  let d = dim p in
  if Array.length x < d then invalid_arg "Fluid.drift_into: state vector too short";
  if Array.length dx < d then invalid_arg "Fluid.drift_into: output vector too short";
  let augmented = Array.length dx >= d + aug_slots in
  Array.fill dx 0 (Array.length dx) 0.0;
  let pop = total_types x d in
  let n = Float.max pop n_floor in
  (* Arrivals. *)
  Array.iter
    (fun (c, rate) ->
      let i = Pieceset.to_index c in
      dx.(i) <- dx.(i) +. rate)
    p.arrivals;
  let full = Pieceset.to_index (Params.full_set p) in
  let immediate = Params.immediate_departure p in
  let transfers = ref 0.0 and lost = ref 0.0 and completions = ref 0.0 in
  let departures = ref 0.0 and aborted = ref 0.0 in
  (* Transfers. *)
  let gammas = Rate.gammas ~us_scale p kernel x ~n in
  for c = 0 to d - 1 do
    for piece = 0 to p.k - 1 do
      let raw = gammas.((c * p.k) + piece) in
      if raw > 0.0 then begin
        (* A lost upload consumes the contact but moves no mass. *)
        let eff = raw *. loss_factor in
        dx.(c) <- dx.(c) -. eff;
        let target = c lor (1 lsl piece) in
        let completes = target = full in
        (* γ = ∞: completion is departure, mass vanishes. *)
        if not (completes && immediate) then dx.(target) <- dx.(target) +. eff;
        transfers := !transfers +. eff;
        lost := !lost +. (raw -. eff);
        if completes then begin
          completions := !completions +. eff;
          if immediate then departures := !departures +. eff
        end
      end
    done
  done;
  (* Churn: every non-seed density drains at [abort_rate]. *)
  if abort_rate > 0.0 then
    for c = 0 to d - 1 do
      if c <> full && x.(c) > 0.0 then begin
        let r = abort_rate *. x.(c) in
        dx.(c) <- dx.(c) -. r;
        departures := !departures +. r;
        aborted := !aborted +. r
      end
    done;
  (* Peer-seed departures. *)
  if not immediate then begin
    let r = p.gamma *. x.(full) in
    dx.(full) <- dx.(full) -. r;
    departures := !departures +. r
  end;
  if augmented then begin
    dx.(d + aug_arrivals) <- Params.lambda_total p;
    dx.(d + aug_transfers) <- !transfers;
    dx.(d + aug_completions) <- !completions;
    dx.(d + aug_departures) <- !departures;
    dx.(d + aug_aborted) <- !aborted;
    dx.(d + aug_lost) <- !lost;
    dx.(d + aug_pop_integral) <- pop
  end

(* The nominal right-hand side on a caller's kernel: an integration
   session owns one, so no evaluation rebuilds its tables. *)
let derivative_on kernel (p : Params.t) x =
  if Array.length x <> dim p then invalid_arg "Fluid.derivative: wrong vector size";
  let dx = Array.make (dim p) 0.0 in
  drift_into p ~kernel ~us_scale:1.0 ~abort_rate:0.0 ~loss_factor:1.0 x dx;
  dx

let derivative (p : Params.t) x = derivative_on (Rate.kernel ~k:p.k) p x

let clamp_nonnegative x = Array.iteri (fun i v -> if v < 0.0 then x.(i) <- 0.0) x

(* Adaptive integration tolerances: tight enough that the discretisation
   error is invisible next to the mean-field approximation error, loose
   enough that million-peer densities integrate in milliseconds. *)
let integrate_control ~dt =
  Ode.control ~rtol:1e-8 ~atol:1e-10 ~init_step:dt ()

let validate_integrate (p : Params.t) ~init ~dt ~horizon ~record_every =
  if Array.length init <> dim p then invalid_arg "Fluid.integrate: wrong vector size";
  if not (Float.is_finite dt) || dt <= 0.0 || record_every < 1 then
    invalid_arg "Fluid.integrate: bad step parameters";
  if Float.is_nan horizon || horizon < 0.0 || not (Float.is_finite horizon) then
    invalid_arg "Fluid.integrate: bad horizon"

let integrate (p : Params.t) ~init ~dt ~horizon ~record_every =
  validate_integrate p ~init ~dt ~horizon ~record_every;
  let kernel = Rate.kernel ~k:p.k in
  let f _t y = derivative_on kernel p y in
  let times = ref [] and totals = ref [] and states = ref [] in
  let record t x =
    let x = Array.copy x in
    clamp_nonnegative x;
    times := t :: !times;
    totals := total x :: !totals;
    states := x :: !states
  in
  record 0.0 init;
  if horizon > 0.0 then begin
    let session = Ode.session ~control:(integrate_control ~dt) ~f ~t0:0.0 ~y0:init () in
    (* Sample the dense output on the grid [i * dt * record_every]
       without constraining the steps the controller takes. *)
    let grid = dt *. float_of_int record_every in
    let gi = ref 1 in
    let on_step s =
      let t = Ode.time s in
      let next () = float_of_int !gi *. grid in
      while next () <= t && next () < horizon do
        record (next ()) (Ode.dense_eval s (next ()));
        incr gi
      done
    in
    (match Ode.advance ~on_step session ~to_:horizon with
    | Ode.Reached -> ()
    | Ode.Step_limit ->
        failwith "Fluid.integrate: step budget exhausted (is the ODE stiff at these params?)"
    | Ode.Stopped _ -> assert false);
    record horizon (Ode.state session)
  end;
  {
    times = Array.of_list (List.rev !times);
    totals = Array.of_list (List.rev !totals);
    states = Array.of_list (List.rev !states);
  }

let equilibrium ?(dt = 0.01) ?(horizon = 2000.0) ?(tol = 1e-7) (p : Params.t) ~init =
  if Array.length init <> dim p then invalid_arg "Fluid.equilibrium: wrong vector size";
  if not (Float.is_finite dt) || dt <= 0.0 then invalid_arg "Fluid.equilibrium: bad dt";
  if Float.is_nan horizon || horizon < 0.0 || not (Float.is_finite horizon) then
    invalid_arg "Fluid.equilibrium: bad horizon";
  let kernel = Rate.kernel ~k:p.k in
  let f _t y = derivative_on kernel p y in
  let converged ~t:_ ~y =
    let x = derivative_on kernel p y in
    let scale = Float.max 1.0 (total_types y (dim p)) in
    let norm = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x in
    norm < tol *. scale
  in
  let session = Ode.session ~control:(integrate_control ~dt) ~f ~t0:0.0 ~y0:init () in
  match Ode.advance ~until:converged session ~to_:horizon with
  | Ode.Stopped _ ->
      let x = Array.copy (Ode.state session) in
      clamp_nonnegative x;
      Some x
  | Ode.Reached | Ode.Step_limit -> None
