(** The subspace content of the per-peer driver {!Peers}: the
    network-coding swarm of Section VIII-B, where a peer holds a
    subspace of [F_q^K] and decodes at full dimension.

    An uploader sends a uniform member of its subspace (the zero vector
    included); the fixed seed a uniform vector of [F_q^K].  An
    empty-handed uploader or a seed downloader makes a silent contact,
    and an upload between equal subspaces is useless without building
    the vector ({!P2p_coding.Subspace.equal}).  [smart_exchange] is
    Remark 16: the uploader sends a basis vector outside the
    downloader's subspace whenever one exists.  Transfer loss is drawn
    per upload, innovative or not.  Traces and probes read the
    dimension as the piece index: raising dim d → d+1 is
    [Transfer { piece = d; _ }], and probe [piece_counts.(i)] counts the
    peers above dimension [i]. *)

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

(** What a coded peer arrives holding. *)
type gift =
  | Coded of int  (** [j] independent uniform random vectors of [F_q^K] *)
  | Span of P2p_coding.Subspace.t  (** a copy of this subspace *)

val peers_config : config -> gift Peers.config
(** {!run}'s driver config: one class ["all"] with [config]'s rates and
    [Coded j] arrivals, and [config]'s faults. *)

val content : config -> (gift, P2p_coding.Subspace.t, unit) Peers.content
(** The subspace content, for {!Peers.run}. *)

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  useful_transfers : int;  (** innovative vectors delivered *)
  useless_transfers : int;
  completions : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
  outage_time : float;
  aborted_peers : int;
  lost_transfers : int;
  samples : (float * int) array;
  dim_histogram : int array;  (** final population by dimension, length K+1 *)
  near_complete_fraction : float;
      (** time-average fraction at dimension K−1: the coded one-club *)
}
(** {!Peers.stats}' counters, named for coded uploads. *)

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
