(** Simulation of the network-coding swarm of Section VIII-B.

    Peers hold subspaces of [F_q^K] instead of piece sets: on contact, the
    uploader transmits a uniformly random linear combination of its coded
    pieces (so the coding vector is uniform over the uploader's subspace —
    including, with probability [q^{-dim}], the useless zero vector).  The
    fixed seed transmits a uniform random vector of [F_q^K].  A peer
    departs (after its dwell, or immediately when γ = ∞) once its subspace
    reaches full dimension.

    The [smart_exchange] flag implements Remark 16: peers exchange
    subspace descriptions, so whenever the uploader can help it sends a
    basis vector outside the downloader's subspace — every eligible
    contact is useful.

    Built on {!Engine}, so the full fault/telemetry families apply: seed
    outages silence the fixed seed, churn aborts in-progress (partial
    dimension) peers, transfer loss drops uploaded vectors, and an
    attached {!P2p_obs.Probe.t} traces events and samples the swarm with
    the usual probes-observe-never-perturb bit-identity guarantee.  Inside
    a {!P2p_runner.Runner} sweep with a [rep_timeout_s], the engine loop
    raises {!P2p_runner.Runner.Rep_timeout} once the watchdog expires.  In
    trace events and probe samples, the subspace {e dimension} plays the
    role of the piece index: a useful transfer raising dim d → d+1 is
    [Transfer { piece = d; _ }], and probe [piece_counts.(i)] counts the
    population at dimension > i (nonincreasing in [i], so the "rarest
    piece" is [K−1] and its count is the number of dwelling seeds). *)

type config = {
  q : int;  (** field size (prime power ≤ 65536) *)
  k : int;  (** number of data pieces K *)
  us : float;
  mu : float;
  gamma : float;  (** [infinity] = immediate departure *)
  arrivals : (int * float) list;
      (** [(j, rate)]: peers arriving holding [j] independent uniform
          random coded pieces ([j = 0]: empty-handed).  Vectors are drawn
          uniformly from [F_q^K], so [j] pieces span a subspace of
          dimension ≤ j. *)
  smart_exchange : bool;
  faults : Faults.t;  (** fault injection; {!Faults.none} = the paper's model *)
}

val of_gift : Stability.Coded.gift_params -> config
(** The paper's gift workload ([λ0] empty, [λ1] one random coded piece);
    no faults. *)

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  useful_transfers : int;  (** innovative vectors delivered (dim increased) *)
  useless_transfers : int;  (** contacts that transmitted a non-innovative vector *)
  completions : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
      (** the [max_events] budget ran out before [horizon]; every
          time-based statistic is biased toward the frozen state *)
  outage_time : float;  (** total time the fixed seed spent down *)
  aborted_peers : int;  (** churn departures (also counted in [departures]) *)
  lost_transfers : int;
      (** uploads dropped by transfer loss (counted per upload, innovative
          or not — unlike the piece simulators, a coded uploader always
          transmits something) *)
  samples : (float * int) array;
  dim_histogram : int array;  (** final population by subspace dimension, length K+1 *)
  near_complete_fraction : float;
      (** time-average fraction of peers at dimension K−1 — the coded
          one-club witness *)
}

val run :
  ?probe:P2p_obs.Probe.t ->
  ?sample_every:float ->
  ?max_events:int ->
  rng:P2p_prng.Rng.t ->
  config ->
  horizon:float ->
  stats

val run_seeded :
  ?probe:P2p_obs.Probe.t ->
  ?sample_every:float ->
  ?max_events:int ->
  seed:int ->
  config ->
  horizon:float ->
  stats
(** Self-contained seeded run (constructs the RNG from [seed]), as the
    replication runner's determinism contract requires. *)
