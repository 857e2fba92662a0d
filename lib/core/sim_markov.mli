(** Exact stochastic simulation of the P2P Markov chain on type counts.

    Rather than enumerating the generator row at every step (O(types²·K)),
    we simulate the underlying {e contact process} the model is defined
    by — arrivals at rate [λ_total], fixed-seed contacts at rate
    [U_s·(n − x_F)/n], peer contacts at rate [μ·(n² − Σ_C x_C²)/n],
    peer-seed departures at rate [γ·x_F] — and resolve each contact with
    the piece-selection policy.  Only contacts between different piece
    sets are raced (the seed counts as a full-type uploader): a same-type
    contact is a self-loop of the chain (DESIGN §18).  Raced contacts
    with no useful piece are silent, exactly as in Section III.  The
    induced jump rates on type counts are exactly Eq. (1) (tests check
    the first-jump law and holding time against {!Rate.transitions}). *)

module Pieceset = P2p_pieceset.Pieceset

type config = {
  params : Params.t;
  policy : Policy.t;
  initial : (Pieceset.t * int) list;  (** starting population *)
  faults : Faults.t;  (** fault injection; {!Faults.none} = the paper's model *)
}

val default_config : Params.t -> config
(** Random-useful policy, empty initial state, no faults. *)

type stats = {
  final_time : float;
  events : int;  (** raced clock ticks; same-type contacts are never raced *)
  arrivals : int;
  transfers : int;  (** successful piece uploads *)
  completions : int;  (** peers reaching the full collection *)
  departures : int;  (** peers leaving the system *)
  time_avg_n : float;  (** time-weighted mean population *)
  max_n : int;
  final_n : int;
  visits_to_empty : int;  (** entries into the empty state *)
  truncated : bool;
      (** the [max_events] budget ran out before [horizon]: the state is
          frozen from the last event to the horizon, so [final_time]
          still reads [horizon] but [time_avg_n], [samples] and every
          other time-based statistic are biased toward the frozen
          state.  Check this flag before trusting long runs. *)
  stopped : bool;
      (** an [until] predicate ended the run early: [final_time] is the
          stop time, nothing after it was simulated *)
  outage_time : float;  (** total time the fixed seed spent down *)
  aborted_peers : int;  (** churn departures (also counted in [departures]) *)
  lost_transfers : int;  (** uploads dropped by transfer loss *)
  samples : (float * int) array;  (** (t, N_t) on the sampling grid *)
}

val run :
  ?probe:P2p_obs.Probe.t ->
  ?observer:(time:float -> state:State.t -> unit) ->
  ?sample_every:float ->
  ?max_events:int ->
  ?resume:Engine.resume ->
  ?until:(time:float -> n:int -> bool) ->
  rng:P2p_prng.Rng.t ->
  config ->
  horizon:float ->
  stats * State.t
(** Simulate on [0, horizon] (or [[resume.t0], horizon] for a resumed
    hybrid segment).  [observer] fires after every state change;
    [until], checked after every state-changing event, ends the run at
    the first event where it holds (sets [stopped]; the hybrid
    upward-handoff trigger); [sample_every] sets the grid for [samples]
    (default [horizon/200]; a resumed segment walks [resume]'s grids
    instead); [max_events] is a safety valve (default
    200 million).  Returns the statistics and the final state.

    [probe] (default {!P2p_obs.Probe.none}) attaches telemetry: event
    tracing (arrivals, contacts, transfers, departures, seed toggles),
    periodic swarm samples on the probe's own sim-time grid, and phase
    profiling ([contact] events are raced contacts only).  The probe
    only ever {e observes} — it never draws from [rng] or touches the
    state — so any run with [probe = Probe.none] is bit-identical to one
    with telemetry attached (a regression test pins this). *)

val run_seeded :
  ?probe:P2p_obs.Probe.t ->
  ?observer:(time:float -> state:State.t -> unit) ->
  ?sample_every:float ->
  ?max_events:int ->
  ?resume:Engine.resume ->
  ?until:(time:float -> n:int -> bool) ->
  seed:int ->
  config ->
  horizon:float ->
  stats * State.t
(** Convenience wrapper constructing the RNG from an integer seed. *)
