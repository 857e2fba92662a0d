(** The fifth backend: the fluid (mean-field) limit driven through the
    shared {!Engine}.

    Where the four stochastic simulators race exponential clocks,
    [Sim_fluid] integrates the {!Fluid} ODE with the adaptive
    Dormand–Prince stepper ({!Ode}) — but through
    {!Engine.drive_continuous}, so it shares the sampling grid, the
    probe grid, fault injection, truncation semantics, and the
    reporting surface with everything else.  A million-peer flash crowd
    that would take the CTMC simulators billions of events integrates
    in a few hundred accepted steps.

    {b Samples from the dense output.}  The stepper lands only on outage
    toggles, the horizon and an [until] crossing; sample and probe points
    inside a step come from its 4th-order interpolant, so the grid density
    does not change the steps taken (worst relative error in N ~4e-6 at
    the default rtol 1e-6 on the million-peer K = 8 crowd).

    {b Two state layouts, one driver.}  When the arrival rates and the
    initial masses are invariant under the permutations of all pieces
    but one, the run integrates the [2K] S_{K−1} orbit masses
    ({!Fluid.orbit_drift_into}, O(K²) per evaluation, nothing of size
    [2^K] at any [K <= 62]) instead of the [2^K] type densities; probes
    read a type's density and a piece's copies off the orbits.  Every
    other input, and an explicit [init], runs on the types.

    {b Faults as drift.}  Seed outages are still the engine's
    alternating-renewal clockwork (stochastic, from the dedicated fault
    stream), but between toggles they act on the ODE as a time-varying
    drift: [us_scale] drops to 0 while the seed is down.  Churn
    ([abort_rate]) and transfer loss ([loss_prob]) are deterministic
    drift modulations — their {e mean-field} effect, applied exactly.

    {b Counters are integrals.}  The state vector carries
    {!Fluid.aug_slots} extra components accumulating each event band's
    rate, so [arrivals], [transfers], … are exact ODE outputs (floats —
    fractional mass, not counts), and the time-averaged population is
    the exact [∫n dt / T], not a grid approximation.

    {b Determinism.}  With [faults = Faults.none] the run makes no
    random draws at all; with faults, the schedule is a pure function
    of the caller's [rng].  Either way the accepted-step sequence — and
    every sample, probe row, and [until] stop time — is reproducible
    bit-for-bit across processes and [--jobs] counts. *)

module Pieceset = P2p_pieceset.Pieceset

type config = {
  params : Params.t;
  initial : (Pieceset.t * float) list;
      (** starting densities by piece set (summed on duplicates) *)
  faults : Faults.t;
  control : Ode.control;  (** stepper tolerances and budgets *)
}

val default_config : Params.t -> config
(** Empty swarm, no faults, {!Ode.default_control}. *)

(** The state a run integrates: the [2^K] type densities, or the [2K]
    S_{K−1} orbit masses around a distinguished piece ({!Fluid.orbits}). *)
type layout = Types | Orbits of int

val layout : config -> layout
(** The layout a run of [config] without [init] takes: [Orbits q] for
    the first piece [q] such that the arrival rates and the initial
    masses are invariant under the permutations of the other pieces
    (faults always are; a fully symmetric input picks piece 0), else
    [Types].  An input that is not invariant is never lumped. *)

val dense_max_k : int
(** Up to this [K] an orbit run returns its final state as [2^K] type
    densities, like a [Types] run; above it, as the empty array. *)

type stats = {
  layout : layout;  (** the state layout that ran *)
  final_time : float;
  steps : int;  (** accepted integration steps *)
  rejected_steps : int;
  rhs_evals : int;
  arrivals : float;  (** cumulative arrival mass (exact integral) *)
  transfers : float;
  completions : float;
  departures : float;
  aborted_mass : float;  (** churn departures (also in [departures]) *)
  lost_mass : float;  (** upload mass dropped by transfer loss *)
  time_avg_n : float;  (** exact [∫n dt / T] *)
  max_n : int;  (** max population seen at grid points and barriers *)
  final_n : float;
  truncated : bool;  (** the step budget ran out; frozen to horizon *)
  stopped : bool;  (** [until] fired; [final_time] is the stop time *)
  outage_time : float;
  samples : (float * int) array;  (** same grid contract as the CTMC sims *)
}

val run :
  ?probe:P2p_obs.Probe.t ->
  ?sample_every:float ->
  ?resume:Engine.resume ->
  ?until:(time:float -> total:float -> bool) ->
  ?init:float array ->
  ?max_steps:int ->
  rng:P2p_prng.Rng.t ->
  config ->
  horizon:float ->
  stats * float array
(** Integrate on [[resume.t0 | 0], horizon]; returns statistics and the
    final density vector (length [Fluid.dim params], clamped
    nonnegative; empty for an orbit run above {!dense_max_k}).  The
    layout is {!layout}[ config]; [init] overrides [config.initial] with
    a raw density vector (the hybrid handoff path) and always runs
    [Types].  [until], checked after every
    accepted step, stops the run at the deterministically-bisected
    crossing time (the hybrid's downward handoff).  [max_steps]
    overrides the control's step budget.
    @raise Invalid_argument on a wrong-size [init], negative or
    non-finite initial masses, or a NaN horizon. *)

val run_seeded :
  ?probe:P2p_obs.Probe.t ->
  ?sample_every:float ->
  ?resume:Engine.resume ->
  ?until:(time:float -> total:float -> bool) ->
  ?init:float array ->
  ?max_steps:int ->
  seed:int ->
  config ->
  horizon:float ->
  stats * float array

val one_club_slope : ?horizon:float -> mass:float -> Params.t -> piece:int -> float option
(** Theorem 1's witness in the fluid: the growth rate
    [(N(T) − N(T/2)) / (T/2)] of the run from [mass] on [F ∖ {piece}]
    (the one-club of [piece]) over [[0, T]], [T = horizon] (default 400),
    at rtol 1e-10, in one orbit session read at [T/2] and carried on
    to [T].  While the club lasts it is Eq. (4)'s
    [Δ_{F∖{piece}}] on both sides of the boundary, so [mass] should
    exceed [|Δ|·T] many times over.  [None] when the arrival rates are
    not invariant around [piece], so the run would need the [2^K]
    types. *)
