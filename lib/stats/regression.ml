type fit = {
  slope : float;
  intercept : float;
  slope_stderr : float;
  r_squared : float;
  n : int;
}

let fit_arrays ~xs ~ys =
  let n = Array.length xs in
  if Array.length ys <> n then invalid_arg "Regression.fit_arrays: length mismatch";
  if n < 3 then invalid_arg "Regression.fit: need at least 3 points";
  let nf = float_of_int n in
  let sx = ref 0.0 and sy = ref 0.0 in
  for i = 0 to n - 1 do
    sx := !sx +. xs.(i);
    sy := !sy +. ys.(i)
  done;
  let mx = !sx /. nf and my = !sy /. nf in
  let sxx = ref 0.0 and sxy = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. dy);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx <= 0.0 then invalid_arg "Regression.fit: degenerate x values";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let ss_res = Float.max 0.0 (!syy -. (slope *. !sxy)) in
  let r_squared = if !syy <= 0.0 then 1.0 else 1.0 -. (ss_res /. !syy) in
  let residual_var = ss_res /. float_of_int (n - 2) in
  let slope_stderr = sqrt (residual_var /. !sxx) in
  { slope; intercept; slope_stderr; r_squared; n }

let fit points = fit_arrays ~xs:(Array.map fst points) ~ys:(Array.map snd points)

let slope_t_statistic f = if f.slope_stderr > 0.0 then f.slope /. f.slope_stderr else infinity

let pp fmt f =
  Format.fprintf fmt "slope=%.6g (se %.3g) intercept=%.6g R2=%.4f n=%d" f.slope f.slope_stderr
    f.intercept f.r_squared f.n
