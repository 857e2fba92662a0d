(** Ordinary least-squares line fit.

    The transience experiments classify a run as unstable when the peer
    count [N_t] grows linearly in [t] (Section VI shows
    [N_t >= N_o - 2B + (Δ - 2ε) t] on the divergence event).  We estimate
    the growth rate and its standard error by OLS over sampled
    [(t, N_t)] points. *)

type fit = {
  slope : float;
  intercept : float;
  slope_stderr : float;  (** standard error of the slope estimate *)
  r_squared : float;
  n : int;
}

val fit_arrays : xs:float array -> ys:float array -> fit
(** Least-squares fit of [y = intercept + slope * x] over the points
    [(xs.(i), ys.(i))], summed in index order; allocates only the result.
    @raise Invalid_argument with fewer than 3 points, unequal lengths,
    or degenerate xs. *)

val fit : (float * float) array -> fit
(** {!fit_arrays} of the points' coordinates, in the same order. *)

val slope_t_statistic : fit -> float
(** [slope / slope_stderr]; large positive values reject "no growth". *)

val pp : Format.formatter -> fit -> unit
