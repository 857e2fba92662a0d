(** Exact stationary analysis of the P2P chain on a truncated state space.

    Theorem 1(b) asserts positive recurrence with finite stationary mean
    population.  For small [K] and a population cap [n_max] we can compute
    the stationary distribution {e exactly}: enumerate every state with at
    most [n_max] peers ({!Balance.space}), fill the generator from Eq. (1)
    ({!Rate.gammas}) with arrivals rejected at the cap (a standard
    truncation that lower-bounds the real queue), and solve the balance
    equations by symmetric Gauss–Seidel ({!Balance.solve}) swept by
    population.

    This gives a third, independent view of the system next to theory and
    simulation: exact [E\[N\]], exact tail probabilities, and the blow-up
    of [E\[N\]] as the arrival rate approaches the Theorem 1 boundary.  For
    [K = 1, γ = ∞] the model degenerates to an M/M/1 queue ([λ] vs [U_s])
    whose closed form validates the whole pipeline.

    The paper assumes an Exp(γ) seed dwell and conjectures in its
    conclusion that the results hold for general laws.  [build ~stages:m]
    replaces the dwell by Erlang-[m] of the same mean [1/γ] (method of
    stages): the chain stays Markov with [m] seed stages in the state, a
    seed in any stage uploads like any type-F peer, and experiment E19
    compares the exact stationary laws across [m]. *)

module Pieceset = P2p_pieceset.Pieceset

type t
(** An enumerated truncated chain with its transition structure. *)

val build : ?stages:int -> Params.t -> n_max:int -> t
(** Enumerate all states with [n <= n_max]: the counts of the [2^K − 1]
    proper types, then the peer seeds by dwell stage ([stages], default 1:
    the Exp dwell; none at [γ = ∞]).  With [d] such counts there are
    [C(n_max + d, d)] states; practical for [K <= 3] and moderate caps.
    @raise Invalid_argument if [n_max < 1], [stages < 1], [stages > 1] at
    [γ = ∞], or the space would exceed 2 million states. *)

val state_count : t -> int

val space : t -> Balance.space
(** The enumerated states; a state's seed count is summed over stages. *)

val rows : t -> Balance.sparse
(** The generator rows, indexed like {!space}. *)

val stationary : ?tol:float -> ?max_iters:int -> t -> float array
(** Stationary distribution by symmetric Gauss–Seidel
    ({!Balance.stationary}) swept by population.  Indices follow {!space}; use the accessors
    below.
    @raise Failure if the iteration does not converge. *)

val mean_population : t -> float array -> float
(** [E\[N\]] under a distribution returned by {!stationary}. *)

val population_tail : t -> float array -> at_least:int -> float
(** [P(N >= m)]. *)

val mean_type_count : t -> float array -> Pieceset.t -> float
(** Stationary mean number of peers of one type; for the full type, the
    peer seeds of every stage.  0 for a type the chain does not carry. *)

val probability_empty : t -> float array -> float

val truncation_mass_at_cap : t -> float array -> float
(** Probability mass on states with [n = n_max] — a diagnostic: if this is
    not small the cap is biting and [E\[N\]] is underestimated. *)

val mean_hitting_time_to_empty :
  ?tol:float -> ?max_sweeps:int -> t -> from_:(Pieceset.t * int) list -> float
(** Expected time to first reach the empty state, starting from the given
    population — the quantity Theorem 14(ii) asserts is finite inside the
    stability region.  Seeds start in the first stage.  Solves the
    first-step equations [h(x) = 1/out(x) + Σ_y P(x,y) h(y)],
    [h(empty) = 0] by the same sweeps ({!Balance.time_to_empty}).
    @raise Invalid_argument if the start exceeds the cap, has a negative
    count, or holds a type the chain does not carry (the full type at
    [γ = ∞], or a type beyond [K]).
    @raise Failure if the iteration does not converge. *)

val return_time_to_empty : t -> float array -> float
(** Mean length of a regeneration cycle, from one entry into the empty
    state to the next: by Kac's formula [1 / (π(empty) · λ_total)], where
    [λ_total], the empty state's outflow, is the rate of leaving it. *)
