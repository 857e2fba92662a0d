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

(** Points [(x, y)] by index, read in place. *)
type points =
  | Arrays of float array * float array  (** [(xs.(i), ys.(i))] *)
  | Counts of (float * int) array  (** sampled [(t, N_t)]: an integer y *)

val length : points -> int
(** @raise Invalid_argument if the two arrays differ in length. *)

val x : points -> int -> float
val y : points -> int -> float
(** The coordinates of point [i]. *)

val fit_points : points -> pos:int -> len:int -> fit
(** Least-squares fit of [y = intercept + slope * x] over the [len]
    points from index [pos], summed in index order; allocates only the
    result.
    @raise Invalid_argument with fewer than 3 points, a range outside
    the points, arrays of unequal lengths, or degenerate xs. *)

val fit : (float * float) array -> fit
(** {!fit_points} of all the points' coordinates, in the same order. *)

val slope_t_statistic : fit -> float
(** [slope / slope_stderr]; large positive values reject "no growth". *)

val pp : Format.formatter -> fit -> unit
