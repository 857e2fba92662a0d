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

(* The flow tally both layouts' right-hand sides keep for the augmented
   slots: an all-float record, so updates do not box. *)
type tally = {
  mutable transfers : float;
  mutable lost : float;
  mutable completions : float;
  mutable departures : float;
  mutable aborted : float;
}

let new_tally () = { transfers = 0.0; lost = 0.0; completions = 0.0; departures = 0.0; aborted = 0.0 }

(* One transfer flow [raw] from state [src] to state [dst] of a drift
   whose peer-seed state is [full]. *)
let[@inline] transfer t ~immediate ~full ~loss_factor dx ~src ~dst raw =
  (* A lost upload consumes the contact but moves no mass. *)
  let eff = raw *. loss_factor in
  dx.(src) <- dx.(src) -. eff;
  let completes = dst = full in
  (* γ = ∞: completion is departure, mass vanishes. *)
  if not (completes && immediate) then dx.(dst) <- dx.(dst) +. eff;
  t.transfers <- t.transfers +. eff;
  t.lost <- t.lost +. (raw -. eff);
  if completes then begin
    t.completions <- t.completions +. eff;
    if immediate then t.departures <- t.departures +. eff
  end

(* The rest of a drift over the [d] states of either layout, once the
   transfers are in: churn, peer-seed departures and the augmented slots. *)
let finish_drift t (p : Params.t) ~immediate ~full ~abort_rate ~pop ~d x dx =
  (* Churn: every non-seed density drains at [abort_rate]. *)
  if abort_rate > 0.0 then
    for c = 0 to d - 1 do
      if c <> full && x.(c) > 0.0 then begin
        let r = abort_rate *. x.(c) in
        dx.(c) <- dx.(c) -. r;
        t.departures <- t.departures +. r;
        t.aborted <- t.aborted +. r
      end
    done;
  (* Peer-seed departures. *)
  if not immediate then begin
    let r = p.gamma *. x.(full) in
    dx.(full) <- dx.(full) -. r;
    t.departures <- t.departures +. r
  end;
  if Array.length dx >= d + aug_slots then begin
    dx.(d + aug_arrivals) <- Params.lambda_total p;
    dx.(d + aug_transfers) <- t.transfers;
    dx.(d + aug_completions) <- t.completions;
    dx.(d + aug_departures) <- t.departures;
    dx.(d + aug_aborted) <- t.aborted;
    dx.(d + aug_lost) <- t.lost;
    dx.(d + aug_pop_integral) <- pop
  end

(* The full right-hand side, shared by the plain [derivative] (nominal
   parameters) and the fluid simulator (fault-modulated, augmented, and
   owning its [kernel] so no call rebuilds its tables). *)
let drift_into p ?(kernel = Rate.kernel ~k:p.Params.k) ~us_scale ~abort_rate ~loss_factor x dx =
  let d = dim p in
  if Array.length x < d then invalid_arg "Fluid.drift_into: state vector too short";
  if Array.length dx < d then invalid_arg "Fluid.drift_into: output vector too short";
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
  let t = new_tally () in
  (* Transfers. *)
  let gammas = Rate.gammas ~us_scale p kernel x ~n in
  for c = 0 to d - 1 do
    for piece = 0 to p.k - 1 do
      let raw = gammas.((c * p.k) + piece) in
      if raw > 0.0 then
        transfer t ~immediate ~full ~loss_factor dx ~src:c ~dst:(c lor (1 lsl piece)) raw
    done
  done;
  finish_drift t p ~immediate ~full ~abort_rate ~pop ~d x dx

(* ---- the S_{K−1} orbit layout ----

   Fix a piece q.  When rates, masses and faults are invariant under the
   permutations of the other K − 1 pieces, so is the solution, and its
   state is the 2K orbit masses z_{a,b}, a = [q ∈ C], b = |C ∖ {q}|, at
   index a·K + b; a type of orbit (a, b) holds y_{a,b} = z_{a,b}/C(K−1, b).
   Eq. (1)'s peer sum at C groups uploaders S by l = |S ∩ C ∖ {q}| and
   the other-piece excess m, so it is a sum over m of C(·, m)·T_b(m)/|S ∖ C|
   with T_b(m) = Σ_l C(b, l) y_{l+m}.  Pascal's rule gives T_b from T_{b−1}
   in place, T_b(m) = T_{b−1}(m) + T_{b−1}(m+1): the orbit form of
   [Rate.gammas]' subset transform, O(K²) per evaluation. *)
type orbits = {
  ok : int;
  piece : int;
  binom : float array;  (* C(n, m) at n * (ok + 1) + m *)
  inv : float array;  (* 1/m, m >= 1 *)
  arrival : float array;  (* λ per orbit *)
  t0 : float array;  (* T_b(m) over y_{0,·} *)
  t1 : float array;  (* T_b(m) over y_{1,·} *)
  gammas : float array;  (* flows out of each orbit, see [orbit_gammas] *)
}

let orbit_index ~k ~piece set =
  if Pieceset.mem piece set then k + Pieceset.cardinal set - 1 else Pieceset.cardinal set

let binomials k =
  let w = k + 1 in
  let b = Array.make (w * w) 0.0 in
  for n = 0 to k do
    b.(n * w) <- 1.0;
    for m = 1 to n do
      b.((n * w) + m) <- b.(((n - 1) * w) + m - 1) +. b.(((n - 1) * w) + m)
    done
  done;
  b

let binom o n m = o.binom.((n * (o.ok + 1)) + m)

let invariant ~k ~piece entries =
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (set, v) ->
      Hashtbl.replace sums set (v +. Option.value (Hashtbl.find_opt sums set) ~default:0.0))
    entries;
  let orbits = Hashtbl.create 16 in
  Hashtbl.iter
    (fun set v ->
      if v <> 0.0 then begin
        let o = orbit_index ~k ~piece set in
        let count, v0, same = Option.value (Hashtbl.find_opt orbits o) ~default:(0, v, true) in
        Hashtbl.replace orbits o (count + 1, v0, same && v = v0)
      end)
    sums;
  let table = binomials (k - 1) in
  Hashtbl.fold
    (fun o (count, _, same) ok ->
      ok && same && float_of_int count = table.(((k - 1) * k) + (o mod k)))
    orbits true

let orbits (p : Params.t) ~piece =
  let k = p.k in
  if piece < 0 || piece >= k then invalid_arg "Fluid.orbits: piece outside the collection";
  let arrival = Array.make (2 * k) 0.0 in
  Array.iter
    (fun (set, rate) ->
      let o = orbit_index ~k ~piece set in
      arrival.(o) <- arrival.(o) +. rate)
    p.arrivals;
  {
    ok = k;
    piece;
    binom = binomials k;
    inv = Array.init (k + 1) (fun m -> 1.0 /. float_of_int (max m 1));
    arrival;
    t0 = Array.make k 0.0;
    t1 = Array.make k 0.0;
    gammas = Array.make (4 * k) 0.0;
  }

let type_density o z set =
  let i = orbit_index ~k:o.ok ~piece:o.piece set in
  z.(i) /. binom o (o.ok - 1) (i mod o.ok)

(* Copies of [piece]: all of orbit (1, ·) for q, else the fraction
   b/(K − 1) of each orbit (a, b) holding it. *)
let piece_mass o z piece =
  let k = o.ok and acc = ref 0.0 in
  for b = 0 to k - 1 do
    if piece = o.piece then acc := !acc +. Float.max 0.0 z.(k + b)
    else begin
      let share = float_of_int b /. float_of_int (k - 1) in
      acc := !acc +. (share *. (Float.max 0.0 z.(b) +. Float.max 0.0 z.(k + b)))
    end
  done;
  !acc

let orbit_densities o z =
  let k = o.ok in
  Array.init (1 lsl k) (fun c -> type_density o z (Pieceset.of_index c))

let orbit_gammas ?(us_scale = 1.0) o (p : Params.t) z ~n =
  let k = o.ok and g = o.gammas in
  if p.k <> k then invalid_arg "Fluid.orbit_gammas: orbits built for another k";
  if Array.length z < 2 * k then invalid_arg "Fluid.orbit_gammas: state shorter than 2K";
  Array.fill g 0 (4 * k) 0.0;
  let t0 = o.t0 and t1 = o.t1 and inv = o.inv in
  for m = 0 to k - 1 do
    let c = binom o (k - 1) m in
    t0.(m) <- Float.max 0.0 z.(m) /. c;
    t1.(m) <- Float.max 0.0 z.(k + m) /. c
  done;
  let seed = us_scale *. p.us in
  for b = 0 to k - 1 do
    if b > 0 then
      for m = 0 to k - 1 - b do
        t0.(m) <- t0.(m) +. t0.(m + 1);
        t1.(m) <- t1.(m) +. t1.(m + 1)
      done;
    (* q into a C of orbit (0, b): uploaders S ∋ q, |S ∖ C| = 1 + m. *)
    if z.(b) > 0.0 then begin
      let acc = ref 0.0 in
      for m = 0 to k - 1 - b do
        acc := !acc +. (binom o (k - 1 - b) m *. t1.(m) *. inv.(1 + m))
      done;
      g.(b) <- z.(b) /. n *. ((seed /. float_of_int (k - b)) +. (p.mu *. !acc))
    end;
    (* Each of the K − 1 − b other pieces C of orbit (a, b) misses: S holds
       it, |S ∖ C| = [q ∈ S ∖ C] + 1 + m. *)
    if b < k - 1 && (z.(b) > 0.0 || z.(k + b) > 0.0) then begin
      let out0 = ref 0.0 and out1 = ref 0.0 in
      for m = 0 to k - 2 - b do
        let c = binom o (k - 2 - b) m in
        let own = t0.(1 + m) *. inv.(1 + m) in
        out0 := !out0 +. (c *. (own +. (t1.(1 + m) *. inv.(2 + m))));
        out1 := !out1 +. (c *. (own +. (t1.(1 + m) *. inv.(1 + m))))
      done;
      let others = float_of_int (k - 1 - b) in
      if z.(b) > 0.0 then
        g.((2 * k) + b) <-
          others *. (z.(b) /. n) *. ((seed /. float_of_int (k - b)) +. (p.mu *. !out0));
      if z.(k + b) > 0.0 then
        g.((3 * k) + b) <-
          others *. (z.(k + b) /. n) *. ((seed /. float_of_int (k - 1 - b)) +. (p.mu *. !out1))
    end
  done;
  g

let orbit_drift_into o (p : Params.t) ~us_scale ~abort_rate ~loss_factor z dz =
  let k = o.ok and d = 2 * o.ok in
  if Array.length dz < d then invalid_arg "Fluid.orbit_drift_into: output shorter than 2K";
  Array.fill dz 0 (Array.length dz) 0.0;
  let pop = total_types z d in
  let g = orbit_gammas ~us_scale o p z ~n:(Float.max pop n_floor) in
  Array.blit o.arrival 0 dz 0 d;
  let full = d - 1 in
  let immediate = Params.immediate_departure p in
  let t = new_tally () in
  for src = 0 to d - 1 do
    (* Out of [src] by q (to [src + k]) and by another piece (to [src + 1]). *)
    for via = 0 to 1 do
      let raw = g.((2 * k * via) + src) in
      if raw > 0.0 then
        transfer t ~immediate ~full ~loss_factor dz ~src
          ~dst:(if via = 0 then src + k else src + 1)
          raw
    done
  done;
  finish_drift t p ~immediate ~full ~abort_rate ~pop ~d z dz

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
