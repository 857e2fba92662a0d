(** Agent-level simulation: every peer is an explicit object.

    Equivalent in law to {!Sim_markov} for the paper's model (tests check
    the first-jump and holding-time laws against {!Rate.transitions}),
    but additionally supports:

    - the Fig. 2 group decomposition — normal young / infected / gifted /
      one-club / former one-club peers with respect to a designated rare
      piece (the instrumentation behind the transience proof);
    - per-peer sojourn times;
    - peer {e classes} with their own [μ_c], [γ_c] and arrival streams —
      the heterogeneous link speeds the conclusion invites (experiment
      E18).  Each peer keeps its class: its seed dwell is drawn at its
      own [γ_c] (a class with [γ_c = ∞] leaves on completion), and its
      clock ticks at the fastest class's [μ_max] with a tick accepted as
      a contact with probability [μ_c/μ_max] (a rejected tick changes
      nothing).  A single class draws no acceptance coin;
    - non-exponential peer-seed dwell times (deterministic, Erlang) — the
      conclusion's conjecture that stability is insensitive to the dwell
      distribution (experiment E6 extension);
    - the Section VIII-C "faster recovery" variant: any uploader whose
      last contact found no useful piece ticks at rate [η·μ] (the seed at
      [η·U_s]) until its next contact;
    - a sparse contact {e overlay} — the conclusion's question of whether
      the results survive other topologies.  Each peer attaches to
      [degree] uniformly chosen peers on arrival (a tracker handing out a
      random peer set), keeps those links until it departs, and uploads
      only to its neighbours.  The fixed seed stays globally reachable (a
      server, not an overlay member).  [degree = None] is the complete
      graph: the paper's model, on which the overlay, the census, the
      silent-contact counter and the club samples make no draws.

    Built on {!Engine}, so the fault families (seed outages, churn,
    transfer loss) and an attached {!P2p_obs.Probe.t} apply on every
    overlay. *)

module Pieceset = P2p_pieceset.Pieceset

type dwell =
  | Exp_dwell  (** Exp(γ) — the paper's model *)
  | Deterministic_dwell  (** constant 1/γ *)
  | Erlang_dwell of int  (** [Erlang_dwell m]: m stages, same mean 1/γ *)

(** Whose piece counts a peer uploader's rarity rule reads. *)
type census =
  | Swarm  (** [policy] sees the whole swarm's state, as in the paper *)
  | Neighbourhood
      (** a peer uploader sends the useful piece with the fewest copies
          among itself and its overlay neighbours, ties uniform
          ({!Policy.rarest} on the local counts, whatever [policy] is);
          the fixed seed, outside the overlay, follows [policy].  Needs a
          sparse overlay. *)

type config = {
  k : int;  (** number of pieces *)
  us : float;  (** fixed seed contact rate U_s *)
  classes : Params.klass list;
      (** the peer classes, the one source of the peer rates μ, γ and the
          arrival streams; initial peers join the first class *)
  policy : Policy.t;
  dwell : dwell;
  eta : float;  (** unsuccessful-contact speedup; 1.0 = paper model *)
  rare_piece : int;  (** the piece the group decomposition tracks *)
  initial : (Pieceset.t * int) list;
      (** starting population; on a sparse overlay attached by the same
          random rule as arrivals *)
  faults : Faults.t;  (** fault injection; {!Faults.none} = the paper's model *)
  degree : int option;  (** attachments per arrival; [None] = complete graph *)
  census : census;
}

val class_config : k:int -> us:float -> Params.klass list -> config
(** Random-useful, exponential dwell, [eta = 1.0], rare piece 0, no
    faults, complete graph, swarm census. *)

val default_config : Params.t -> config
(** [class_config] on the single class [p] describes
    ({!Params.classes}): the paper's model. *)

val validate : config -> unit
(** What {!run} checks before any draw.
    @raise Invalid_argument, naming the offending value, when [k], [us]
    and [classes] fail {!Params.check_classes}, [eta] is not [>= 1], the
    rare piece is out of range, [degree < 1], an Erlang dwell has no
    stage, a [Neighbourhood] census runs on the complete graph, or the
    first class has [γ = ∞] and full-set initial peers (they would never
    leave). *)

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
  silent_contacts : int;
      (** contacts that uploaded nothing: no useful piece, a self-contact,
          or an isolated uploader *)
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
  club_samples : (float * float) array;
      (** max over pieces of the fraction of peers missing exactly that
          piece — the one-club witness that needs no designated piece *)
  mean_sojourn : float;  (** of departed peers; [nan] if none departed *)
  sojourn_count : int;
  one_club_time_fraction : float;
      (** time-average fraction of peers in the one-club (+ former members
          still present): the missing-piece-syndrome witness *)
  mean_degree_time_avg : float;  (** overlay degree; [nan] on the complete graph *)
  final_component_sizes : int list;
      (** overlay components at the end, sorted descending; the whole
          population on the complete graph *)
  class_mean_n : float array;
      (** time-average population per class, in [classes] order; they sum
          to [time_avg_n] *)
  class_mean_sojourn : float array;  (** per class; [nan] where none departed *)
}

val run :
  ?probe:P2p_obs.Probe.t ->
  ?observer:(time:float -> state:State.t -> unit) ->
  ?sample_every:float ->
  ?max_events:int ->
  rng:P2p_prng.Rng.t ->
  config ->
  horizon:float ->
  stats * State.t
(** Simulate on [0, horizon]; returns statistics and the final aggregate
    state (type counts).  [observer] fires after every state change, as
    in {!Sim_markov.run}.

    [probe] (default {!P2p_obs.Probe.none}) attaches telemetry exactly as
    in {!Sim_markov.run}: pure observation, never a perturbation — runs
    are bit-identical with and without a probe attached.

    @raise Invalid_argument before any draw on a config {!validate}
    rejects. *)

val run_seeded :
  ?probe:P2p_obs.Probe.t ->
  ?observer:(time:float -> state:State.t -> unit) ->
  ?sample_every:float ->
  ?max_events:int ->
  seed:int ->
  config ->
  horizon:float ->
  stats * State.t
