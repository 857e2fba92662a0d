(** The type-level Markov chain of the network-coding system
    (Theorem 15).

    Under random linear coding the network state is the count of peers of
    each subspace type [V ⊆ F_q^K].  For small [q^K] the subspace lattice
    ({!P2p_coding.Lattice}) makes the chain exactly computable: arrival
    type laws come from the rank/span distribution of random gift
    matrices, and the transfer rates between types follow from the exact
    probability that a random member of the uploader's subspace lifts the
    downloader to a given cover.

    On top of the generator this module provides a Gillespie simulator, a
    truncated-space exact stationary solver (via {!Balance}), and the
    coded Lyapunov function of Eq. (56) with its exact drift — the
    computational content of the Theorem 15(b) proof. *)

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

(** A state is the dense count vector indexed by subspace id, together
    with its total. *)
type state = { counts : int array; mutable n : int }

val empty_state : t -> state
val state_of : t -> (Lattice.subspace * int) list -> state
val copy_state : state -> state

type transition =
  | Arrival of Lattice.subspace
  | Seed_departure
  | Transfer of { downloader : Lattice.subspace; target : Lattice.subspace }

val transitions : t -> state -> (transition * float) list
(** Every positive-rate transition out of the state.  Arrivals of
    already-complete peers are included only when γ < ∞ (otherwise they
    do not change the state). *)

val apply : t -> state -> transition -> unit
(** @raise Invalid_argument on an impossible transition. *)

val mu_tilde : t -> float
(** [(1 − 1/q) μ] — the effective useful-contact rate of Theorem 15. *)

(* ---- simulation ---- *)

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
      (** the [max_events] budget ran out before [horizon]; time-based
          statistics are biased toward the frozen final state *)
  samples : (float * int) array;
}

val simulate :
  ?sample_every:float ->
  ?max_events:int ->
  rng:P2p_prng.Rng.t ->
  t ->
  init:state ->
  horizon:float ->
  stats
(** Exact Gillespie simulation on type counts, on {!Engine.drive} (cost
    per event is O(occupied types × covers), independent of the
    population).  [max_events] defaults to 200 million. *)

(* ---- exact stationary analysis ---- *)

type solved = {
  chain_states : int array array;
  pi : float array;
  mean_n : float;
  mass_at_cap : float;
}

val stationary : ?tol:float -> t -> n_max:int -> solved
(** Enumerate all states with [n <= n_max] (arrivals rejected at the cap)
    and solve the balance equations.  State count is
    [C(n_max + T, T)] with [T] the number of subspace types, so this is
    for genuinely small lattices (e.g. q=2, K=2: T=5).
    @raise Invalid_argument if the space would exceed ~2 million states. *)

val mean_dim : t -> solved -> float
(** Stationary mean subspace dimension per peer (population-weighted);
    [nan] if the system is empty almost surely. *)

(* ---- the Eq. (56) Lyapunov function ---- *)

val default_coeffs : t -> Lyapunov.coeffs

val w : t -> Lyapunov.coeffs -> state -> float
(** [W = Σ_V r^{dim V} (½E_V² + α E_V φ(H_V))] with
    [E_V = Σ_{V'⊆V} x_{V'}] and
    [H_V = ((1−1/q)/(1−μ̃/γ)) Σ_{V'⊄V} (K − dim V' + μ/γ) x_{V'}].
    @raise Invalid_argument when [γ ≤ μ̃] (outside the Eq. 56 regime). *)

val drift_w : t -> Lyapunov.coeffs -> state -> float
(** Exact generator drift [QW(x)] by row enumeration. *)

type scan_point = { state_desc : string; n : int; drift_value : float; drift_per_peer : float }

val scan_hyperplane_states : t -> Lyapunov.coeffs -> sizes:int list -> scan_point list
(** Drift at the coded one-club states: every peer of the same hyperplane
    type [V⁻], for each [V⁻] and size. *)
