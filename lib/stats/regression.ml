type fit = {
  slope : float;
  intercept : float;
  slope_stderr : float;
  r_squared : float;
  n : int;
}

type points = Arrays of float array * float array | Counts of (float * int) array

let length = function
  | Arrays (xs, ys) ->
      if Array.length ys <> Array.length xs then
        invalid_arg "Regression.length: xs and ys differ in length";
      Array.length xs
  | Counts a -> Array.length a

let[@inline] x p i = match p with Arrays (xs, _) -> xs.(i) | Counts a -> fst a.(i)
let[@inline] y p i = match p with Arrays (_, ys) -> ys.(i) | Counts a -> float_of_int (snd a.(i))

(* The range is checked once, so the two passes index it unchecked.
   Each layout has its own loops: a match per point made the detector's
   24-point fits ~20 ns slower each. *)
let fit_points p ~pos ~len =
  let n = len in
  if pos < 0 || n < 0 || pos > length p - n then
    invalid_arg "Regression.fit_points: range out of bounds";
  if n < 3 then invalid_arg "Regression.fit: need at least 3 points";
  let nf = float_of_int n in
  let last = pos + n - 1 in
  let sx = ref 0.0 and sy = ref 0.0 in
  (match p with
  | Arrays (xs, ys) ->
      for i = pos to last do
        sx := !sx +. Array.unsafe_get xs i;
        sy := !sy +. Array.unsafe_get ys i
      done
  | Counts a ->
      for i = pos to last do
        let t, v = Array.unsafe_get a i in
        sx := !sx +. t;
        sy := !sy +. float_of_int v
      done);
  let mx = !sx /. nf and my = !sy /. nf in
  let sxx = ref 0.0 and sxy = ref 0.0 and syy = ref 0.0 in
  (match p with
  | Arrays (xs, ys) ->
      for i = pos to last do
        let dx = Array.unsafe_get xs i -. mx and dy = Array.unsafe_get ys i -. my in
        sxx := !sxx +. (dx *. dx);
        sxy := !sxy +. (dx *. dy);
        syy := !syy +. (dy *. dy)
      done
  | Counts a ->
      for i = pos to last do
        let t, v = Array.unsafe_get a i in
        let dx = t -. mx and dy = float_of_int v -. my in
        sxx := !sxx +. (dx *. dx);
        sxy := !sxy +. (dx *. dy);
        syy := !syy +. (dy *. dy)
      done);
  if !sxx <= 0.0 then invalid_arg "Regression.fit: degenerate x values";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let ss_res = Float.max 0.0 (!syy -. (slope *. !sxy)) in
  let r_squared = if !syy <= 0.0 then 1.0 else 1.0 -. (ss_res /. !syy) in
  let residual_var = ss_res /. float_of_int (n - 2) in
  let slope_stderr = sqrt (residual_var /. !sxx) in
  { slope; intercept; slope_stderr; r_squared; n }

let fit points =
  fit_points (Arrays (Array.map fst points, Array.map snd points)) ~pos:0
    ~len:(Array.length points)

let slope_t_statistic f = if f.slope_stderr > 0.0 then f.slope /. f.slope_stderr else infinity

let pp fmt f =
  Format.fprintf fmt "slope=%.6g (se %.3g) intercept=%.6g R2=%.4f n=%d" f.slope f.slope_stderr
    f.intercept f.r_squared f.n
