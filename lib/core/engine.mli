(** The shared simulation-engine core behind every simulator:
    {!drive} runs the jump processes ({!Sim_markov} and the per-peer
    driver {!Peers}, which races {!Sim_agent} and {!Sim_coded}), and
    {!drive_continuous} the fluid model.

    Every jump-process simulator is the same machine wearing a
    different model: an exponential race over a handful of aggregate
    rates, punctured by {e time barriers} (scheduled departures popping
    off a heap, seed-outage toggles), truncated by a horizon and an event
    budget, and observed through a sampling grid, a time-averaged
    population, and an optional {!P2p_obs.Probe.t}.  Before this module
    existed that scaffolding lived as hand-maintained near-copies,
    and only two of them ({!Sim_markov}, {!Sim_agent}) ever received the
    fault layer and the telemetry hooks.  [Engine] is the single home
    for the shared part; each simulator supplies only its model-specific
    state and transition logic as a {!model} record of closures.

    {b What the engine owns}: the clock, the horizon / [max_events]
    truncation (and the [truncated] flag), the shared {!counters}, the
    time-average of the population, the [Vec]-backed sampling grid, the
    probe grid and {!P2p_obs.Profile} spans, the per-run {!Faults.run}
    clockwork (including the toggle time barrier and the [Seed_toggle]
    trace events), and the replication watchdog: every 1,024 events
    {!drive} polls {!P2p_runner.Runner.deadline_exceeded} and raises
    {!P2p_runner.Runner.Rep_timeout} once it holds, so a sweep's
    [rep_timeout_s] stops every jump backend mid-run.

    {b What a model supplies}: its total event rate (stashing the
    per-band components for {!model.apply} to dispatch on), the event
    dispatch itself, the next scheduled (non-exponential) event time and
    its handler, the current population, any extra per-grid-point
    samples, the probe-sample builder, and a finaliser for model-owned
    accumulators.

    {b Determinism contracts} (all pinned by tests):
    - a run with [faults = Faults.none] makes no fault draws and is
      bit-identical to a fault-free simulator build;
    - a run with a probe attached is bit-identical to one without
      (probes only ever observe, on the {e simulation} clock);
    - the per-replication draw sequence is a pure function of the
      caller's [rng], so runner aggregates are bit-identical across any
      [--jobs] count.

    {b Loop semantics}, one iteration: draw [dt ~ Exp(total_rate)] and
    let [t_next = clock + dt]; the earliest of (outage toggle, scheduled
    event, [t_next]) wins, with ties broken in that order.  Toggles are
    gated by the event budget (so an exhausted run truncates instead of
    walking the remaining outage schedule); scheduled events are not
    (they were committed when scheduled, and consume budget as ordinary
    events).  When [t_next] overruns the horizon or the budget is spent,
    the run truncates: the state is frozen to the horizon, which biases
    every time-based statistic — the [truncated] flag records that the
    numbers should not be trusted silently. *)

(** Event counters shared by every simulator.  Models bump these from
    their dispatch closures; the engine itself only touches [events] and
    [max_n]. *)
type counters = {
  mutable events : int;  (** every clock tick: exponential race + scheduled *)
  mutable arrivals : int;
  mutable transfers : int;  (** successful (useful) piece/vector deliveries *)
  mutable completions : int;
  mutable departures : int;  (** all kinds: completed, dwelled, churned *)
  mutable aborted : int;  (** churn departures (also counted in [departures]) *)
  mutable lost : int;  (** uploads dropped by transfer loss *)
  mutable max_n : int;
}

type t
(** The engine handle passed to a model builder: access to the shared
    counters, the fault clockwork, and the population observer. *)

val counters : t -> counters

val start_time : t -> float
(** The global simulation time this run started at — [0.] for a fresh
    run, the segment boundary for a {!resume}d one.  Models observe
    their initial population at this time, not a hard-coded [0.]. *)

val request_stop : t -> unit
(** Ask the engine to end the run after the event being dispatched.
    Called by a model from inside [apply] / [scheduled] when an [until]
    predicate fires (the hybrid handoff trigger): the engine closes the
    time-average and the model accumulators {e at the current clock}, so
    [final_time] reads the stop time rather than the horizon, and
    {!stats.stopped} is set. *)

val faults : t -> Faults.run
(** The run's fault clockwork, for [Faults.seed_up] in rate computation
    and [Faults.lost] on transfers.  Started from the caller's spec
    before the model builder runs (so fault-stream splitting precedes
    any model setup draws, as the pre-engine simulators did). *)

val observe : t -> time:float -> n:int -> unit
(** Feed one population observation: updates the time-average and
    [max_n].  Each model decides {e when} to observe (e.g. {!Sim_markov}
    only after a state-changing event, {!Peers} after every event) —
    the call sequence is part of the bit-identity contract, because
    float summation order in the time-average depends on it. *)

(** The model-specific half of a simulator, as closures over its own
    state.  All of these are called by {!drive} only. *)
type model = {
  total_rate : unit -> float;
      (** Total exponential race rate for the current state.  Models
          stash the per-band components in their closure for [apply]. *)
  apply : time:float -> u:float -> unit;
      (** Dispatch one race event at [time], where [u] is uniform on
          [0, total_rate ()) — compare against the stashed band
          boundaries in the same order they were summed. *)
  next_scheduled : unit -> float;
      (** Earliest scheduled (non-exponential) event, [infinity] if
          none — e.g. the departures heap minimum. *)
  scheduled : time:float -> unit;
      (** Handle the scheduled event at its time.  The engine has
          already advanced the clock, recorded the grid, and counted the
          event. *)
  population : unit -> int;  (** current swarm size, for the sampling grid *)
  extra_sample : time:float -> unit;
      (** Model-specific additions to each grid point (group counts,
          one-club fractions); called right after the engine pushes
          [(time, population ())]. *)
  probe_sample : time:float -> P2p_obs.Probe.sample;
      (** Build one probe sample; only called when the probe samples. *)
  finish : time:float -> unit;
      (** Close model-owned accumulators at truncation time (the engine
          closes its own population average first). *)
}

(** The common statistics prefix every simulator shares.  Model-specific
    statistics (sojourns, dimension histograms, component sizes, …) are
    carried by the ['a] the model builder returns through {!drive}. *)
type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;
  completions : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
      (** the [max_events] budget ran out before [horizon]: the state is
          frozen from the last event to the horizon, so [final_time]
          still reads [horizon] but every time-based statistic is biased
          toward the frozen state. *)
  stopped : bool;
      (** the run ended early because the model called {!request_stop}
          (or a continuous model's [until] fired); [final_time] is the
          stop time, and nothing after it was simulated. *)
  outage_time : float;
  aborted_peers : int;
  lost_transfers : int;
  samples : (float * int) array;  (** (t, N_t) on the sampling grid *)
}

(** {1 Resumable segments}

    The hybrid simulator chops one logical run into alternating
    stochastic and fluid segments on a single global clock.  A [resume]
    value carries the cross-segment engine state: the segment's start
    time, where the sampling grid left off (the probe grid resumes
    strictly after [t0]), and the already-running fault clockwork (so
    outage schedules span segments and the rng is only split once, at
    the top of the logical run). *)
type resume = {
  t0 : float;  (** segment start on the global simulation clock *)
  grid_after : float;
      (** last grid time already recorded by a previous segment; the
          first sample of this segment lands on the next multiple of the
          interval strictly after it.  Negative = fresh grid starting at
          exactly [0.]. *)
  frun : Faults.run option;
      (** an already-started fault run to continue ([Faults.start] is
          skipped, and no fault rng split happens); [None] = start one *)
}

val fresh : resume
(** [t0 = 0.], fresh grid, fresh fault run — [drive]'s default, and
    bit-identical to the pre-resume engine. *)

val drive :
  ?probe:P2p_obs.Probe.t ->
  ?sample_every:float ->
  ?max_events:int ->
  ?resume:resume ->
  name:string ->
  rng:P2p_prng.Rng.t ->
  faults:Faults.t ->
  horizon:float ->
  (t -> model * 'a) ->
  stats * 'a
(** [drive ~name ~rng ~faults ~horizon build] runs one simulation on
    [[resume.t0], horizon] (fresh runs start at 0).  [build] receives
    the handle, constructs the model state (including the initial
    population and the initial {!observe} at {!start_time}), and
    returns the {!model} plus whatever the simulator needs to assemble
    its model-specific statistics afterwards.  [name] prefixes the
    profile spans ([name ^ "/setup"], ["/event-loop"], ["/finalise"]).
    [sample_every] defaults to [horizon /. 200.] (floored at [1e-9]);
    [max_events] defaults to 200 million.
    @raise P2p_runner.Runner.Rep_timeout when the watchdog of the
    replication running on this domain expires (never outside a
    {!P2p_runner.Runner} sweep with a [rep_timeout_s]). *)

(** {1 The continuous (fluid) model interface}

    The fifth backend integrates the mean-field ODE instead of racing
    exponentials, but shares everything else: the sampling grid, the
    probe grid, the fault clockwork, truncation semantics, and the
    {!stats} record.  Only fault toggles, the horizon and the model's own
    [until] crossing are {e time barriers} the integrator lands on
    exactly ([c_advance ~to_:barrier]).  Sample and probe points inside
    an accepted step are read from the model's 4th-order dense output,
    so fluid trajectories share the stochastic simulators' sim-time grid
    and [p2psim report] works unchanged, while the grid density does not
    change the steps taken. *)
type continuous = {
  c_advance :
    to_:float ->
    on_step:(t_end:float -> view:(float -> unit) -> unit) ->
    [ `Reached | `Stopped of float | `Step_limit ];
      (** Integrate the continuous state from its current time to [to_]
          (global simulation time), calling [on_step ~t_end ~view] after
          every accepted step ending at [t_end] (the stop time when
          [until] fires).  Inside it, [view g] makes [c_population] and
          [c_probe_sample] read the interpolated state at [g] within
          the step; elsewhere they read the live state.  [`Stopped t]
          = the model's own [until] predicate fired at [t <= to_]
          (hybrid handoff); [`Step_limit] = the step budget ran out
          (maps to {!stats.truncated}). *)
  c_population : unit -> float;  (** total mass at the current state *)
  c_extra_sample : time:float -> unit;
  c_probe_sample : time:float -> P2p_obs.Probe.sample;
  c_toggled : unit -> unit;
      (** A seed-outage toggle just happened at the current time: the
          drift changed discontinuously, so invalidate any cached
          right-hand-side evaluations (FSAL stages). *)
  c_time_average : until:float -> float;
      (** Exact time-averaged population over [[start, until]] — fluid
          models integrate an auxiliary [∫N dt] state, which is exact
          where a piecewise-constant {!P2p_stats.Timeavg} would not be. *)
  c_finish : time:float -> unit;
      (** Close model accumulators and write the rounded cumulative
          flows into {!counters} (arrivals, transfers, …). *)
}

val drive_continuous :
  ?probe:P2p_obs.Probe.t ->
  ?sample_every:float ->
  ?resume:resume ->
  name:string ->
  rng:P2p_prng.Rng.t ->
  faults:Faults.t ->
  horizon:float ->
  (t -> continuous * 'a) ->
  stats * 'a
(** Drive a continuous model over [[resume.t0], horizon].  [rng] is
    used only to start the fault stream (no draws at all when
    [faults = Faults.none] and [resume.frun = None] — determinism
    contract identical to the stochastic drivers).  It does not poll the
    replication watchdog: no caller runs it under one.  [sample_every]
    defaults to [(horizon - t0) /. 200.] (floored at [1e-9]). *)
