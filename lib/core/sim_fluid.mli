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

type stats = {
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
    nonnegative).  [init] overrides [config.initial] with a raw density
    vector (the hybrid handoff path).  [until], checked after every
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
