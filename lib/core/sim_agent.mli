(** The piece-set content of the per-peer driver {!Peers}: every peer
    holds a piece set.  Equivalent in law to {!Sim_markov} (the
    first-jump and holding-time laws are tested against
    {!Rate.transitions}).  Beside the driver's classes, dwell laws, η
    speedup, overlays and faults it adds the upload rule ({!Policy} on
    the swarm's type counts, or a neighbourhood census), the Fig. 2
    group decomposition with respect to a rare piece, and the one-club
    witnesses. *)

module Pieceset = P2p_pieceset.Pieceset

type dwell = Peers.dwell =
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

(** [us], [classes], [dwell], [eta], [initial], [faults] and [degree]
    are {!Peers.config}'s. *)
type config = {
  k : int;  (** number of pieces *)
  us : float;
  classes : Params.klass list;
  policy : Policy.t;
  dwell : dwell;
  eta : float;
  rare_piece : int;  (** the piece the group decomposition tracks *)
  initial : (Pieceset.t * int) list;
  faults : Faults.t;
  degree : int option;
  census : census;
}

val class_config : k:int -> us:float -> Params.klass list -> config
(** Random-useful, exponential dwell, [eta = 1.0], rare piece 0, no
    faults, complete graph, swarm census. *)

val default_config : Params.t -> config
(** [class_config] on the single class [p] describes
    ({!Params.classes}): the paper's model. *)

val validate : config -> unit
(** What {!run} checks before any draw: {!Params.check_classes},
    {!Peers.validate}, the rare piece's range, a [Neighbourhood] census
    on a sparse overlay, and no full-set initial peers in a first class
    with [γ = ∞].  @raise Invalid_argument naming the value. *)

type groups = {
  young : int;  (** missing the rare piece and at least one other *)
  infected : int;  (** received the rare piece after arrival, while young *)
  gifted : int;  (** arrived already holding the rare piece *)
  one_club : int;  (** type F − {rare piece} *)
  former_one_club : int;  (** were one-club, received the rare piece *)
}

val groups_total : groups -> int

type stats = groups Peers.stats
(** [group_samples]: the Fig. 2 groups; [club_samples]: the largest
    fraction of peers missing exactly one piece;
    [one_club_time_fraction]: peers of type F − {rare piece}, plus the
    seeds when some class dwells. *)

val run :
  ?probe:P2p_obs.Probe.t ->
  ?observer:(time:float -> state:State.t -> unit) ->
  ?sample_every:float ->
  ?max_events:int ->
  rng:P2p_prng.Rng.t ->
  config ->
  horizon:float ->
  stats * State.t
(** {!Peers.run} on piece sets; returns the final type counts too.
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
