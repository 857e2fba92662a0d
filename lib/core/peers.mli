(** The per-peer driver: the paper's contact process raced one peer at a
    time, over whatever a peer holds.

    The fixed seed contacts a uniform peer at rate [U_s]; each peer's
    clock ticks at its class's [μ_c], a tick being an upload to a
    uniform peer; peers arrive in Poisson streams, and a peer that holds
    everything dwells as a seed (or leaves at once when [γ_c = ∞]).  What
    a peer holds and what an upload does to it is the {!content}: a
    piece set ({!Sim_agent}) or a subspace of [F_q^K] ({!Sim_coded}).
    The driver owns the rest, for both:

    - the peer array with O(1) swap-removal, and the seeds' dwell heap
      (exponential, deterministic or Erlang dwell);
    - peer classes: every clock ticks at [μ_max = max_c μ_c] and a
      class-c tick is a contact with probability [μ_c/μ_max] (the
      fastest class draws no coin);
    - the Section VIII-C "faster recovery" variant: an uploader that
      had nothing to send ticks at [η·μ] (the fixed seed at [η·U_s])
      until its next contact or receipt;
    - a sparse overlay: an arrival attaches to [degree] uniform peers
      and uploads only to its neighbours (an isolated peer contacts
      itself); the fixed seed reaches everyone;
    - the {!Faults} families (outages, churn of unfinished peers,
      transfer loss), an attached probe (which never perturbs a run)
      and the {!Engine} model.

    Draw order: an arrival draws its stream (alias table), its content,
    its overlay links, then its dwell if it holds everything; a contact
    draws its uploader (η-weighted), the class coin, the downloader, the
    content's offer, then the loss coin if something was sent.  The
    bands are arrivals, seed, peers, churn. *)

module Pieceset = P2p_pieceset.Pieceset

type dwell =
  | Exp_dwell  (** Exp(γ) — the paper's model *)
  | Deterministic_dwell  (** constant 1/γ *)
  | Erlang_dwell of int  (** [Erlang_dwell m]: m stages, same mean 1/γ *)

type 'spec config = {
  us : float;  (** fixed seed contact rate U_s *)
  classes : 'spec Params.class_of list;  (** initial peers join the first *)
  dwell : dwell;
  eta : float;  (** unsuccessful-contact speedup; 1.0 = paper model *)
  initial : ('spec * int) list;
      (** a peer holding everything dwells, so needs a finite γ *)
  faults : Faults.t;
  degree : int option;  (** attachments per arrival; [None] = complete graph *)
}

val config : us:float -> 'spec Params.class_of list -> 'spec config
(** Exponential dwell, [eta = 1.0], no initial peers or faults, complete
    graph. *)

val validate : who:string -> 'spec config -> unit
(** @raise Invalid_argument prefixed by [who] unless [eta >= 1],
    [degree >= 1] and an Erlang dwell has a stage. *)

type 'c t
(** The live swarm. *)

type 'c peer

val content : 'c peer -> 'c
val size : 'c t -> int
val iter : 'c t -> ('c -> unit) -> unit

val iter_neighbours : 'c t -> 'c peer -> ('c -> unit) -> unit
(** The overlay neighbours' contents (none on the complete graph). *)

(** One run's content.  A ['c] belongs to one peer and is mutated in
    place.  An offer stages an upload ([false]: nothing to send, a
    silent contact); the loss coin falls between it and [receive]. *)
type ('spec, 'c, 'g) ops = {
  name : string;  (** {!Engine.drive}'s, and the [name ^ "/contact"] timer's *)
  make : 'spec -> 'c;  (** may draw *)
  join : 'c -> unit;  (** census hooks *)
  leave : 'c -> unit;
  full : 'c -> bool;
  offer_seed : 'c -> bool;  (** the fixed seed's upload to this downloader *)
  offer : 'c peer -> 'c -> bool;
  receive : 'c -> stays:bool -> int;
      (** the trace's piece index, or [-1] if useless; [stays = false]
          when a completing peer leaves at once *)
  club : unit -> int;  (** its fraction of [n] is time-averaged *)
  witness : n:int -> float;  (** sampled on the grid *)
  group : unit -> 'g;  (** sampled on the grid *)
  pieces : 'c -> Pieceset.t;  (** an arrival's trace encoding *)
  probe_sample : time:float -> P2p_obs.Probe.sample;
}

type ('spec, 'c, 'g) content =
  rng:P2p_prng.Rng.t -> probe:P2p_obs.Probe.t -> 'c t -> ('spec, 'c, 'g) ops

type 'g stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;  (** useful uploads *)
  useless_transfers : int;  (** received but useless (never for a piece) *)
  completions : int;
  departures : int;
  silent_contacts : int;  (** nothing to send, or a self-contact *)
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;  (** [max_events] ran out: time statistics are biased *)
  outage_time : float;
  aborted_peers : int;  (** churn departures (also in [departures]) *)
  lost_transfers : int;
  samples : (float * int) array;
  group_samples : (float * 'g) array;
  club_samples : (float * float) array;
  mean_sojourn : float;  (** of departed peers; [nan] if none *)
  sojourn_count : int;
  one_club_time_fraction : float;
  mean_degree_time_avg : float;  (** [nan] on the complete graph *)
  final_component_sizes : int list;
      (** overlay components, descending; the population on the complete
          graph *)
  class_mean_n : float array;  (** per class; they sum to [time_avg_n] *)
  class_mean_sojourn : float array;
}

val run :
  ?probe:P2p_obs.Probe.t ->
  ?observer:(time:float -> 'c t -> unit) ->
  ?sample_every:float ->
  ?max_events:int ->
  rng:P2p_prng.Rng.t ->
  'spec config ->
  ('spec, 'c, 'g) content ->
  horizon:float ->
  'g stats * 'c t
(** Simulate on [0, horizon]; [observer] fires after every state change.
    @raise Invalid_argument before any draw on a config {!validate}
    rejects. *)
