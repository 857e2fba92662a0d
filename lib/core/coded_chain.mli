(** The type-level Markov chain of the network-coding system
    (Theorem 15).

    Under random linear coding the network state is the count of peers of
    each subspace type [V ⊆ F_q^K].  For small [q^K] the subspace lattice
    ({!P2p_coding.Lattice}) makes the chain exactly computable: arrival
    type laws come from the rank/span distribution of random gift
    matrices, and the transfer rates between types follow from the exact
    probability that a random member of the uploader's subspace lifts the
    downloader to a given cover.

    The generator row is a list of unit moves between subspace ids, the
    entry form of {!Rate.transitions} and {!Balance.rows}, so the chain
    reuses the uncoded exact toolkit rather than copying it: the
    truncated stationary solve runs on {!Balance}, and the coded Lyapunov
    function of Eq. (56) — the computational content of the Theorem
    15(b) proof — is {!Lyapunov.lattice_w} on the subspace lattice, with
    its exact drift from {!Lyapunov.drift_counts}.  The chain is
    simulated by {!Sim_coded}, which races the same law at the level of
    individual peers' subspaces. *)

module Lattice = P2p_coding.Lattice

type config = {
  q : int;
  k : int;
  us : float;
  mu : float;
  gamma : float;  (** [infinity] = depart on decoding *)
  arrivals : (int * float) list;  (** [(j, rate)]: gifts of [j] random coded pieces *)
}

type t

val create : config -> t
(** Builds the subspace lattice and the arrival decomposition.
    @raise Invalid_argument on bad rates, [q^k > 256], or an arrival mix
    whose every stream has rate 0. *)

val lattice : t -> Lattice.t
val config : t -> config

val arrival_rate_to : t -> Lattice.subspace -> float
(** Poisson rate of arrivals of exactly this subspace type. *)

val state_of : t -> (Lattice.subspace * int) list -> int array
(** A state: the count of peers of each subspace type, indexed by id
    (duplicates summed).  @raise Invalid_argument on a negative count. *)

val transitions : t -> int array -> (int * int * float) list
(** Every positive-rate transition out of a state, as a move
    [(from_, to_, rate)] of one peer between subspace ids, [-1] standing
    for outside the system: arrivals [(-1, V, rate)], seed departures
    [(F, -1, γ x_F)] and transfers [(V, W, rate)], with [-1] in place of
    the full space [F] when γ = ∞ (a decoded peer leaves).  Arrivals of
    already-complete peers are included only when γ < ∞ (otherwise they
    do not change the state).  At γ = ∞ the vector may omit [F], the
    last id. *)

val mu_tilde : t -> float
(** [(1 − 1/q) μ] — the effective useful-contact rate of Theorem 15. *)

(* ---- exact stationary analysis ---- *)

type solved = {
  space : Balance.space;  (** the enumerated states, indexing [pi] *)
  pi : float array;
  mean_n : float;
  mass_at_cap : float;
}

val stationary : ?tol:float -> t -> n_max:int -> solved
(** Enumerate all states with [n <= n_max] (arrivals rejected at the cap)
    and solve the balance equations.  State count is
    [C(n_max + T, T)] with [T] the number of subspace types, so this is
    for genuinely small lattices (e.g. q=2, K=2: T=5).  A state's slots
    are the subspace ids (less the full space at γ = ∞).
    @raise Invalid_argument if [n_max < 1] or the space would exceed 2
    million states. *)

val mean_dim : t -> solved -> float
(** Stationary mean subspace dimension per peer (population-weighted);
    [nan] if the system is empty almost surely. *)

(* ---- the Eq. (56) Lyapunov function ---- *)

val default_coeffs : t -> Lyapunov.coeffs
(** {!Lyapunov.ramp_coeffs} for the largest one-peer jump of [H_V]. *)

val w : t -> Lyapunov.coeffs -> int array -> float
(** [W = Σ_V r^{dim V} (½E_V² + α E_V φ(H_V))] with
    [E_V = Σ_{V'⊆V} x_{V'}] and
    [H_V = ((1−1/q)/(1−μ̃/γ)) Σ_{V'⊄V} (K − dim V' + μ/γ) x_{V'}]:
    {!Lyapunov.lattice_w} on the subspace lattice.
    @raise Invalid_argument when [γ ≤ μ̃] (outside the Eq. 56 regime). *)

val drift_w : t -> Lyapunov.coeffs -> int array -> float
(** Exact generator drift [QW(x)] over the moves of {!transitions}. *)

val scan_hyperplane_states : t -> Lyapunov.coeffs -> sizes:int list -> Lyapunov.scan_point list
(** Drift at the coded one-club states: every peer of the same hyperplane
    type [V⁻], for each [V⁻] and size. *)
