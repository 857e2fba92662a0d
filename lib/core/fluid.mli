(** Deterministic fluid (mean-field) limit of the type-count dynamics.

    Scaling initial state and arrival rates by a factor going to infinity,
    the density of each type follows the ODE obtained by replacing the
    jump rates of Eq. (1) by their drift (the approach of Massoulié &
    Vojnović's coupon-replication analysis, cited as [11]):

    {v ẋ_C = λ_C + Σ_{i∈C} Γ_{C−i,C}(x) − Σ_{i∉C} Γ_{C,C∪i}(x) − γ·x_F·[C=F] v}

    with [Γ] evaluated at real-valued [x].  Integration is adaptive
    Dormand–Prince 5(4) ({!Ode}) with dense-output sampling, so
    trajectories are recorded on an exact sim-time grid regardless of
    the steps the error controller takes.  Inside the stability region
    trajectories approach a finite equilibrium; in the transient region
    the one-club coordinate grows linearly — the fluid picture of the
    missing piece syndrome.  {!Sim_fluid} wraps this RHS in the shared
    {!Engine} (telemetry, faults, counters); this module is the bare
    maths. *)

module Pieceset = P2p_pieceset.Pieceset

type trajectory = {
  times : float array;
  totals : float array;  (** total population n(t) *)
  states : float array array;  (** row per recorded time; index = bitmask *)
}

val dim : Params.t -> int
(** Number of type densities: [2^k] piece-set bitmasks. *)

val of_state : k:int -> State.t -> float array
(** Dense vector from a discrete state. *)

val derivative : Params.t -> float array -> float array
(** The right-hand side of the ODE at nominal parameters.
    @raise Invalid_argument on a wrong-size vector. *)

(** {1 Generalised right-hand side (the fluid backend's RHS)} *)

val aug_slots : int
(** The fluid simulator appends this many cumulative-flow slots after
    the [dim p] densities; {!drift_into} fills their rates so event
    counters come out of the integrator exactly. *)

val aug_arrivals : int
val aug_transfers : int
val aug_completions : int
val aug_departures : int
val aug_aborted : int
val aug_lost : int

val aug_pop_integral : int
(** Index offsets (from [dim p]) of each augmented slot; the last one
    accumulates [∫ n(t) dt] for exact time-averaged population. *)

val drift_into :
  Params.t ->
  ?kernel:Rate.kernel ->
  us_scale:float ->
  abort_rate:float ->
  loss_factor:float ->
  float array ->
  float array ->
  unit
(** [drift_into p ~us_scale ~abort_rate ~loss_factor x dx] writes the
    fault-modulated drift of [x] into [dx] (overwriting it).  [us_scale]
    multiplies the fixed seed's upload rate (0 during a seed outage),
    [abort_rate] drains every non-seed density (churn), [loss_factor]
    is the fraction of uploads that actually deliver (1 - loss
    probability) — lost uploads consume contacts but move no mass.
    Only the first [dim p] entries of [x] are read; if [dx] has at
    least [dim p + aug_slots] entries the cumulative-flow rates are
    written after the densities.  With nominal parameters this is
    bit-identical to {!derivative}.  Flows come from {!Rate.gammas} on
    [kernel] (a fresh one when omitted; repeated callers should own one).
    @raise Invalid_argument on short vectors. *)

(** {1 The S_{K−1} orbit layout}

    Fix a piece [q].  When the arrival rates, the initial masses and the
    faults are invariant under the permutations of the other [K − 1]
    pieces, so is the solution, and its state is the [2K] orbit masses
    [z_{a,b}] at index [a·K + b], with [a = [q ∈ C]] and
    [b = |C ∖ {q}|]; each of the [C(K−1, b)] types of orbit [(a, b)]
    holds [z_{a,b} / C(K−1, b)].  The right-hand side costs O(K²) and
    never allocates anything of size [2^K]. *)

type orbits
(** Binomial tables, per-orbit arrival rates and scratch rows for one
    [(params, q)]; not shareable between concurrent evaluations. *)

val orbits : Params.t -> piece:int -> orbits
(** @raise Invalid_argument if [piece] is outside the collection. *)

val orbit_index : k:int -> piece:int -> Pieceset.t -> int
(** The orbit [a·K + b] of a piece set around [piece]. *)

val invariant : k:int -> piece:int -> (Pieceset.t * float) list -> bool
(** Whether a list of (piece set, value) entries — duplicates summed,
    zero values ignored — is invariant under the permutations fixing
    [piece]: in every orbit either no set or each of its [C(K−1, b)]
    sets carries one and the same value. *)

val orbit_gammas : ?us_scale:float -> orbits -> Params.t -> float array -> n:float -> float array
(** Eq. (1) summed over orbits, in an array the orbits own: at [i] the
    flow by piece [q] out of orbit [i] (zero unless [q ∉ C]), at [2K + i]
    the flow by any other piece, both summed over the orbit's types.
    [Γ] of {!Rate.gammas} on the [2^K] state the orbit masses stand for,
    summed the same way, agrees within its rounding bound: the peer sums
    here take O(K²) adds of nonnegative terms.
    @raise Invalid_argument on a short state or orbits built for another [k]. *)

val orbit_drift_into :
  orbits ->
  Params.t ->
  us_scale:float ->
  abort_rate:float ->
  loss_factor:float ->
  float array ->
  float array ->
  unit
(** {!drift_into} on orbit masses: reads the first [2K] entries of the
    state, writes the [2K] orbit drifts and, when the output has room,
    the same {!aug_slots} cumulative-flow rates.  Summed over each orbit,
    the 2^K drift of the invariant state it stands for equals this one
    within rounding.  @raise Invalid_argument on short vectors or
    orbits built for another [k]. *)

val type_density : orbits -> float array -> Pieceset.t -> float
(** The density of one piece set: its orbit's mass over the orbit size. *)

val piece_mass : orbits -> float array -> int -> float
(** Copies of a piece, from the nonnegative parts of the orbit masses. *)

val orbit_densities : orbits -> float array -> float array
(** The [2^K] type densities an orbit state stands for (small [K] only). *)

val clamp_nonnegative : float array -> unit
(** Zero out tiny negative densities (integration round-off) in place —
    applied to {e outputs}, never mid-integration. *)

(** {1 Integration} *)

val integrate :
  Params.t -> init:float array -> dt:float -> horizon:float -> record_every:int -> trajectory
(** Adaptive integration over [[0, horizon]], recorded on the grid
    [i * dt * record_every] (plus the horizon itself); [dt] seeds the
    controller's first trial step.  @raise Invalid_argument if [dt] is
    not finite positive, [record_every < 1], [horizon] is NaN, negative
    or infinite, or [init] has the wrong size. *)

val equilibrium :
  ?dt:float -> ?horizon:float -> ?tol:float -> Params.t -> init:float array -> float array option
(** Integrate until the derivative's max-norm falls below [tol] (relative
    to the state scale); [None] if the horizon is hit first (e.g. in the
    transient regime).  @raise Invalid_argument as {!integrate}. *)

val total : float array -> float
