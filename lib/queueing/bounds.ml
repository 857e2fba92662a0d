let mg_inf_maximal_bound ~arrival_rate ~mean_service ~b ~eps =
  if eps <= 0.0 then 1.0
  else begin
    let numerator = exp (arrival_rate *. (mean_service +. 1.0)) *. (2.0 ** -.b) in
    let denominator = 1.0 -. (2.0 ** -.eps) in
    Float.max 0.0 (Float.min 1.0 (numerator /. denominator))
  end

let poisson_tail ~mean ~at_least =
  if at_least <= 0 then 1.0
  else begin
    (* P(X >= k) = 1 - sum_{j<k} e^-m m^j / j!   computed in log space. *)
    let below = ref 0.0 in
    let log_term = ref (-.mean) in
    (* log of term j=0 *)
    for j = 0 to at_least - 1 do
      if j > 0 then log_term := !log_term +. log mean -. log (float_of_int j);
      below := !below +. exp !log_term
    done;
    Float.max 0.0 (1.0 -. !below)
  end
