(** Empirical stability classification from simulation traces.

    Theorem 1's dichotomy shows up in finite runs as a sharp qualitative
    difference: transient parameterisations grow linearly
    ([N_t ≈ Δ·t], Section VI), while positive-recurrent ones keep
    returning to small populations.  We classify a trace by (i) the OLS
    growth rate of [N_t] over the second half of the run with its
    t-statistic and (ii) a recurrence witness — the minimum of [N_t] over
    the last quarter relative to the running scale. *)

type verdict = Appears_stable | Appears_unstable | Inconclusive

val verdict_to_string : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit

type result = {
  verdict : verdict;
  growth_rate : float;  (** peers per unit time, OLS on the second half *)
  growth_t_stat : float;
  late_minimum : int;  (** min N over the last quarter of the run *)
  early_scale : float;  (** mean N over the first half (the comparison scale) *)
  mean_n : float;  (** time-average N over the whole run *)
  final_n : int;
}

val of_samples : (float * int) array -> result
(** Classify a sampled [(t, N_t)] trajectory.
    @raise Invalid_argument with fewer than 16 samples, or if the second
    half of the samples is all at one time (no growth fit). *)

val of_points : P2p_stats.Regression.points -> result
(** {!of_samples} of any points [(t, N_t)], read in place: the same
    sums in the same order, so the same bits for the same points.
    [of_samples samples] is [of_points (Counts samples)].
    @raise Invalid_argument also on arrays of unequal lengths. *)

val run :
  ?horizon:float -> ?policy:Policy.t -> ?initial:(Sim_markov.Pieceset.t * int) list ->
  seed:int -> Params.t -> result
(** Simulate and classify in one step (default horizon 2000 time units). *)

val majority :
  ?replications:int -> ?horizon:float -> ?policy:Policy.t -> seed:int -> Params.t -> verdict
(** Run several independent replications (default 3) and take the modal
    verdict, treating a tie as [Inconclusive]. *)
