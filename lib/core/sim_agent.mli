(** Agent-level simulation: every peer is an explicit object.

    Equivalent in law to {!Sim_markov} for the paper's model (a test
    checks the agreement), but additionally supports:

    - the Fig. 2 group decomposition — normal young / infected / gifted /
      one-club / former one-club peers with respect to a designated rare
      piece (the instrumentation behind the transience proof);
    - per-peer sojourn times;
    - non-exponential peer-seed dwell times (deterministic, Erlang) — the
      conclusion's conjecture that stability is insensitive to the dwell
      distribution (experiment E6 extension);
    - the Section VIII-C "faster recovery" variant: any uploader whose
      last contact found no useful piece ticks at rate [η·μ] (the seed at
      [η·U_s]) until its next contact. *)

module Pieceset = P2p_pieceset.Pieceset

type dwell =
  | Exp_dwell  (** Exp(γ) — the paper's model *)
  | Deterministic_dwell  (** constant 1/γ *)
  | Erlang_dwell of int  (** [Erlang_dwell m]: m stages, same mean 1/γ *)

type config = {
  params : Params.t;
  policy : Policy.t;
  dwell : dwell;
  eta : float;  (** unsuccessful-contact speedup; 1.0 = paper model *)
  rare_piece : int;  (** the piece the group decomposition tracks *)
  initial : (Pieceset.t * int) list;
  faults : Faults.t;  (** fault injection; {!Faults.none} = the paper's model *)
}

val default_config : Params.t -> config
(** Random-useful, exponential dwell, [eta = 1.0], rare piece 0, no faults. *)

type groups = {
  young : int;  (** missing the rare piece and at least one other *)
  infected : int;  (** received the rare piece after arrival, while young *)
  gifted : int;  (** arrived already holding the rare piece *)
  one_club : int;  (** type F − {rare piece} *)
  former_one_club : int;  (** were one-club, received the rare piece *)
}

val groups_total : groups -> int

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
      (** the [max_events] budget ran out before [horizon]; time-based
          statistics are biased toward the frozen final state *)
  outage_time : float;  (** total time the fixed seed spent down *)
  aborted_peers : int;  (** churn departures (also counted in [departures]) *)
  lost_transfers : int;  (** uploads dropped by transfer loss *)
  samples : (float * int) array;
  group_samples : (float * groups) array;
  mean_sojourn : float;  (** of departed peers; [nan] if none departed *)
  sojourn_count : int;
  one_club_time_fraction : float;
      (** time-average fraction of peers in the one-club (+ former members
          still present): the missing-piece-syndrome witness *)
}

val run :
  ?probe:P2p_obs.Probe.t ->
  ?sample_every:float ->
  ?max_events:int ->
  rng:P2p_prng.Rng.t ->
  config ->
  horizon:float ->
  stats * State.t
(** Simulate on [0, horizon]; returns statistics and the final aggregate
    state (type counts).

    [probe] (default {!P2p_obs.Probe.none}) attaches telemetry exactly as
    in {!Sim_markov.run}: pure observation, never a perturbation — runs
    are bit-identical with and without a probe attached. *)

val run_seeded :
  ?probe:P2p_obs.Probe.t ->
  ?sample_every:float ->
  ?max_events:int ->
  seed:int ->
  config ->
  horizon:float ->
  stats * State.t
