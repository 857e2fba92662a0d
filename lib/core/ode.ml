(* Dormand–Prince 5(4) with PI step control and dense output.
   Coefficients are the standard DOPRI5 tableau (Hairer–Nørsett–Wanner,
   "Solving Ordinary Differential Equations I", table 5.2, plus the
   dense-output d_i of the accompanying dopri5 code). *)

type control = {
  rtol : float;
  atol : float;
  init_step : float option;
  max_step : float;
  max_steps : int;
}

let default_control =
  { rtol = 1e-6; atol = 1e-9; init_step = None; max_step = infinity; max_steps = 20_000_000 }

let control ?(rtol = 1e-6) ?(atol = 1e-9) ?init_step ?(max_step = infinity) ?(max_steps = 20_000_000)
    () =
  let pos name v =
    if not (Float.is_finite v && v > 0.0) then
      invalid_arg (Printf.sprintf "Ode.control: %s must be finite > 0, got %g" name v)
  in
  pos "rtol" rtol;
  pos "atol" atol;
  Option.iter (pos "init_step") init_step;
  if not (max_step > 0.0) then
    invalid_arg (Printf.sprintf "Ode.control: max_step must be > 0, got %g" max_step);
  if max_steps < 1 then
    invalid_arg (Printf.sprintf "Ode.control: max_steps must be >= 1, got %d" max_steps);
  { rtol; atol; init_step; max_step; max_steps }

(* Butcher tableau. *)
let c2 = 0.2
let c3 = 0.3
let c4 = 0.8
let c5 = 8.0 /. 9.0

let a21 = 0.2
let a31 = 3.0 /. 40.0
let a32 = 9.0 /. 40.0
let a41 = 44.0 /. 45.0
let a42 = -56.0 /. 15.0
let a43 = 32.0 /. 9.0
let a51 = 19372.0 /. 6561.0
let a52 = -25360.0 /. 2187.0
let a53 = 64448.0 /. 6561.0
let a54 = -212.0 /. 729.0
let a61 = 9017.0 /. 3168.0
let a62 = -355.0 /. 33.0
let a63 = 46732.0 /. 5247.0
let a64 = 49.0 /. 176.0
let a65 = -5103.0 /. 18656.0

(* 5th-order weights (= the 7th row: FSAL). *)
let b1 = 35.0 /. 384.0
let b3 = 500.0 /. 1113.0
let b4 = 125.0 /. 192.0
let b5 = -2187.0 /. 6784.0
let b6 = 11.0 /. 84.0

(* b - b_hat: the embedded 4th-order error weights. *)
let e1 = 71.0 /. 57600.0
let e3 = -71.0 /. 16695.0
let e4 = 71.0 /. 1920.0
let e5 = -17253.0 /. 339200.0
let e6 = 22.0 /. 525.0
let e7 = -1.0 /. 40.0

(* Dense-output d_i (4th-order interpolant). *)
let d1 = -12715105075.0 /. 11282082432.0
let d3 = 87487479700.0 /. 32700410799.0
let d4 = -10690763975.0 /. 1880347072.0
let d5 = 701980252875.0 /. 199316789632.0
let d6 = -1453857185.0 /. 822651844.0
let d7 = 69997945.0 /. 29380423.0

type step = {
  st0 : float;
  sh : float;
  sy0 : float array;
  sy1 : float array;
  sk1 : float array;  (* f(t0, y0) *)
  sk7 : float array;  (* f(t0+h, y1): the FSAL stage *)
  (* rcont3..rcont5 of Hairer's contd5; rcont1 = y0, rcont2 = y1 - y0. *)
  sr3 : float array;
  sr4 : float array;
  sr5 : float array;
}

let step_y1 s = Array.copy s.sy1

let step_eval s t =
  let h = s.sh in
  if not (Float.is_finite t) || t < s.st0 -. (1e-12 *. Float.abs h) || t > s.st0 +. h +. (1e-12 *. Float.abs h)
  then invalid_arg (Printf.sprintf "Ode.step_eval: %g outside step [%g, %g]" t s.st0 (s.st0 +. h));
  let theta = (t -. s.st0) /. h in
  let theta1 = 1.0 -. theta in
  let n = Array.length s.sy0 in
  Array.init n (fun i ->
      let ydiff = s.sy1.(i) -. s.sy0.(i) in
      s.sy0.(i)
      +. (theta *. (ydiff +. (theta1 *. (s.sr3.(i) +. (theta *. (s.sr4.(i) +. (theta1 *. s.sr5.(i)))))))))

(* Scaled RMS error of the embedded difference. *)
let err_norm ~control y0 y1 e =
  let n = Array.length y0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let sc = control.atol +. (control.rtol *. Float.max (Float.abs y0.(i)) (Float.abs y1.(i))) in
    let q = e.(i) /. sc in
    acc := !acc +. (q *. q)
  done;
  sqrt (!acc /. float_of_int n)

(* Core step evaluation from a precomputed k1.  Writes the 7 stages and
   the 5th-order y1; returns (y1, k7, err). *)
let eval_step ~f ~control ~t ~y ~h ~k1 =
  let n = Array.length y in
  let tmp = Array.make n 0.0 in
  (* Each stage is y + h * Σ_j a_j k_j, summed left to right from 0.0,
     written out as a plain loop so no element allocates. *)
  for i = 0 to n - 1 do
    tmp.(i) <- y.(i) +. (h *. (0.0 +. (a21 *. k1.(i))))
  done;
  let k2 = f (t +. (c2 *. h)) tmp in
  for i = 0 to n - 1 do
    tmp.(i) <- y.(i) +. (h *. (0.0 +. (a31 *. k1.(i)) +. (a32 *. k2.(i))))
  done;
  let k3 = f (t +. (c3 *. h)) tmp in
  for i = 0 to n - 1 do
    tmp.(i) <- y.(i) +. (h *. (0.0 +. (a41 *. k1.(i)) +. (a42 *. k2.(i)) +. (a43 *. k3.(i))))
  done;
  let k4 = f (t +. (c4 *. h)) tmp in
  for i = 0 to n - 1 do
    tmp.(i) <-
      y.(i)
      +. (h
         *. (0.0 +. (a51 *. k1.(i)) +. (a52 *. k2.(i)) +. (a53 *. k3.(i)) +. (a54 *. k4.(i))))
  done;
  let k5 = f (t +. (c5 *. h)) tmp in
  for i = 0 to n - 1 do
    tmp.(i) <-
      y.(i)
      +. (h
         *. (0.0 +. (a61 *. k1.(i)) +. (a62 *. k2.(i)) +. (a63 *. k3.(i)) +. (a64 *. k4.(i))
            +. (a65 *. k5.(i))))
  done;
  let k6 = f (t +. h) tmp in
  let y1 = Array.make n 0.0 in
  for i = 0 to n - 1 do
    y1.(i) <-
      y.(i)
      +. (h
          *. ((b1 *. k1.(i)) +. (b3 *. k3.(i)) +. (b4 *. k4.(i)) +. (b5 *. k5.(i))
             +. (b6 *. k6.(i))))
  done;
  let k7 = f (t +. h) y1 in
  let e = Array.make n 0.0 in
  for i = 0 to n - 1 do
    e.(i) <-
      h
      *. ((e1 *. k1.(i)) +. (e3 *. k3.(i)) +. (e4 *. k4.(i)) +. (e5 *. k5.(i)) +. (e6 *. k6.(i))
         +. (e7 *. k7.(i)))
  done;
  let err = err_norm ~control y y1 e in
  (k2, k3, k4, k5, k6, y1, k7, err)

let dense_coeffs ~h ~y0 ~y1 ~k1 ~k3 ~k4 ~k5 ~k6 ~k7 =
  let n = Array.length y0 in
  let r3 = Array.make n 0.0 and r4 = Array.make n 0.0 and r5 = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let ydiff = y1.(i) -. y0.(i) in
    let bspl = (h *. k1.(i)) -. ydiff in
    r3.(i) <- bspl;
    r4.(i) <- ydiff -. (h *. k7.(i)) -. bspl;
    r5.(i) <-
      h
      *. ((d1 *. k1.(i)) +. (d3 *. k3.(i)) +. (d4 *. k4.(i)) +. (d5 *. k5.(i)) +. (d6 *. k6.(i))
         +. (d7 *. k7.(i)))
  done;
  (r3, r4, r5)

let try_step ~f ~control ~t ~y ~h =
  if not (Float.is_finite h && h > 0.0) then
    invalid_arg (Printf.sprintf "Ode.try_step: h must be finite > 0, got %g" h);
  let k1 = f t y in
  let _, k3, k4, k5, k6, y1, k7, _ = eval_step ~f ~control ~t ~y ~h ~k1 in
  let r3, r4, r5 = dense_coeffs ~h ~y0:y ~y1 ~k1 ~k3 ~k4 ~k5 ~k6 ~k7 in
  {
    st0 = t;
    sh = h;
    sy0 = Array.copy y;
    sy1 = y1;
    sk1 = k1;
    sk7 = k7;
    sr3 = r3;
    sr4 = r4;
    sr5 = r5;
  }

type session = {
  ctrl : control;
  mutable f : float -> float array -> float array;
  mutable t : float;
  mutable y : float array;
  mutable h : float;  (* the controller's proposed next step; 0 = not chosen yet *)
  mutable fsal : float array option;  (* f(t, y) if still valid *)
  mutable n_steps : int;
  mutable n_rejected : int;
  mutable n_evals : int;
  mutable last : step option;  (* the last accepted step, for dense output *)
}

let session ?(control = default_control) ~f ~t0 ~y0 () =
  if not (Float.is_finite t0) then invalid_arg "Ode.session: t0 must be finite";
  if Array.length y0 = 0 then invalid_arg "Ode.session: empty state vector";
  Array.iter
    (fun v -> if not (Float.is_finite v) then invalid_arg "Ode.session: non-finite initial state")
    y0;
  {
    ctrl = control;
    f;
    t = t0;
    y = Array.copy y0;
    h = (match control.init_step with Some h -> h | None -> 0.0);
    fsal = None;
    n_steps = 0;
    n_rejected = 0;
    n_evals = 0;
    last = None;
  }

let set_rhs s f =
  s.f <- f;
  s.fsal <- None

let time s = s.t
let state s = s.y
let steps s = s.n_steps
let rejected s = s.n_rejected
let evals s = s.n_evals

let dense_eval s t =
  match s.last with
  | None -> invalid_arg "Ode.dense_eval: no accepted step yet"
  | Some st -> step_eval st t

let rhs s t y =
  s.n_evals <- s.n_evals + 1;
  s.f t y

(* Classic first-step heuristic (HNW I.4): balance |y|/|f| scales, probe
   one Euler step, combine. *)
let initial_step s ~k1 ~dir_limit =
  let c = s.ctrl in
  let n = Array.length s.y in
  let sc i = c.atol +. (c.rtol *. Float.abs s.y.(i)) in
  let d0 = ref 0.0 and d1 = ref 0.0 in
  for i = 0 to n - 1 do
    let a = s.y.(i) /. sc i and b = k1.(i) /. sc i in
    d0 := !d0 +. (a *. a);
    d1 := !d1 +. (b *. b)
  done;
  let d0 = sqrt (!d0 /. float_of_int n) and d1 = sqrt (!d1 /. float_of_int n) in
  let h0 = if d0 < 1e-5 || d1 < 1e-5 then 1e-6 else 0.01 *. (d0 /. d1) in
  let h0 = Float.min h0 dir_limit in
  (* One explicit Euler probe to estimate the second derivative scale. *)
  let y1 = Array.init n (fun i -> s.y.(i) +. (h0 *. k1.(i))) in
  let k2 = rhs s (s.t +. h0) y1 in
  let d2 = ref 0.0 in
  for i = 0 to n - 1 do
    let q = (k2.(i) -. k1.(i)) /. sc i in
    d2 := !d2 +. (q *. q)
  done;
  let d2 = sqrt (!d2 /. float_of_int n) /. h0 in
  let dmax = Float.max d1 d2 in
  let h1 = if dmax <= 1e-15 then Float.max 1e-6 (h0 *. 1e-3) else (0.01 /. dmax) ** 0.2 in
  Float.min (Float.min (100.0 *. h0) h1) (Float.min dir_limit s.ctrl.max_step)

type outcome = Reached | Stopped of float | Step_limit

(* Locate the earliest until-crossing inside an accepted step by bisection
   on the dense output.  [pred] is false at st.st0 and true at the step
   end.  Deterministic: pure float bisection to a fixed relative width. *)
let locate_crossing st ~pred =
  let lo = ref st.st0 and hi = ref (st.st0 +. st.sh) in
  (* ~50 bisections bottom out float precision long before; the loop also
     stops when the interval is unsplittable. *)
  let continue = ref true in
  while !continue do
    let mid = 0.5 *. (!lo +. !hi) in
    if mid <= !lo || mid >= !hi then continue := false
    else begin
      let y = step_eval st mid in
      if pred ~t:mid ~y then hi := mid else lo := mid;
      if !hi -. !lo <= 1e-12 *. Float.max 1.0 (Float.abs !hi) then continue := false
    end
  done;
  !hi

let advance ?until ?on_step s ~to_ =
  if Float.is_nan to_ then invalid_arg "Ode.advance: target time is NaN";
  if to_ < s.t then
    invalid_arg (Printf.sprintf "Ode.advance: target %g precedes current time %g" to_ s.t);
  let c = s.ctrl in
  let result = ref Reached in
  let running = ref (s.t < to_) in
  while !running do
    if s.n_steps >= c.max_steps then begin
      result := Step_limit;
      running := false
    end
    else begin
      let k1 =
        match s.fsal with
        | Some k -> k
        | None ->
            let k = rhs s s.t s.y in
            s.fsal <- Some k;
            k
      in
      let remaining = to_ -. s.t in
      if remaining <= Float.abs to_ *. 1e-14 then begin
        (* Within float resolution of the target: snap rather than force a
           step the clock cannot represent. *)
        s.t <- to_;
        running := false
      end
      else begin
      if s.h <= 0.0 then s.h <- initial_step s ~k1 ~dir_limit:remaining;
      let h = Float.min (Float.min s.h c.max_step) remaining in
      if h <= Float.abs s.t *. 1e-14 +. 1e-300 then
        failwith
          (Printf.sprintf "Ode.advance: step size underflow at t = %g (h = %g)" s.t h);
      s.n_evals <- s.n_evals + 6;
      let _, k3, k4, k5, k6, y1, k7, err = eval_step ~f:s.f ~control:c ~t:s.t ~y:s.y ~h ~k1 in
      if Float.is_nan err || err > 1.0 then begin
        (* Reject: shrink and retry.  A NaN error means the step left the
           domain entirely; halve hard. *)
        s.n_rejected <- s.n_rejected + 1;
        let fac =
          if Float.is_nan err then 0.5 else Float.max 0.2 (0.9 *. (err ** -0.2))
        in
        s.h <- h *. Float.min fac 1.0;
        if s.h <= Float.abs s.t *. 1e-14 +. 1e-300 then
          failwith
            (Printf.sprintf "Ode.advance: step size underflow at t = %g after rejection" s.t)
      end
      else begin
        (* Accept. *)
        let r3, r4, r5 = dense_coeffs ~h ~y0:s.y ~y1 ~k1 ~k3 ~k4 ~k5 ~k6 ~k7 in
        let st =
          { st0 = s.t; sh = h; sy0 = s.y; sy1 = y1; sk1 = k1; sk7 = k7; sr3 = r3;
            sr4 = r4; sr5 = r5 }
        in
        s.last <- Some st;
        s.t <- s.t +. h;
        s.y <- y1;
        s.fsal <- Some k7;
        s.n_steps <- s.n_steps + 1;
        (* Next proposed step from the accepted error. *)
        let fac =
          if err <= 1e-30 then 10.0 else Float.min 10.0 (Float.max 0.2 (0.9 *. (err ** -0.2)))
        in
        s.h <- h *. fac;
        let stopped =
          match until with
          | Some pred when pred ~t:s.t ~y:s.y ->
              let tc = locate_crossing st ~pred in
              s.t <- tc;
              s.y <- step_eval st tc;
              s.fsal <- None;
              result := Stopped tc;
              true
          | _ -> false
        in
        (match on_step with Some g -> g s | None -> ());
        if stopped || s.t >= to_ then running := false
      end
      end
    end
  done;
  !result
