(** Closed-form bounds from the paper's appendix. *)

val mg_inf_maximal_bound : arrival_rate:float -> mean_service:float -> b:float -> eps:float -> float
(** Lemma 21: for an M/GI/∞ queue started empty with arrival rate [λ] and
    mean service time [m],
    [P{M_t >= B + εt for some t} <= e^{λ(m+1)} 2^{-B} / (1 - 2^{-ε})].
    Returns the right-hand side clamped to [0, 1]. *)

val poisson_tail : mean:float -> at_least:int -> float
(** [P(Poisson(mean) >= k)] by direct summation — exact reference law of
    the M/GI/∞ stationary population, used to validate the simulator. *)
