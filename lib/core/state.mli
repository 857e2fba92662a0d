(** The Markov chain state: the count of peers of each type.

    The state vector of Section III is [x = (x_C : C ∈ C)].  We store only
    the occupied types — dense parallel arrays with O(1) swap-removal plus
    an allocation-free open-addressing table from type to slot (two int
    arrays, linear probing, backward-shift deletion) — and cache the
    total population [n], so one-club-heavy states (the interesting ones)
    cost O(occupied types), not O(2^K).  Beside the counts sits a peer
    bag: an array holding the type of each of the [n] peers, with each
    type's positions threaded on a doubly-linked list, so a uniform peer
    is one array lookup and every add/remove/move stays O(1).  The first
    draw builds the bag in one pass; a state that is never sampled never
    builds it, and {!copy} leaves it behind, so a copy costs O(occupied
    types), not O(n).  A per-piece copy-count vector is maintained
    incrementally on every add/remove/move, so {!piece_copies} is O(1)
    and {!piece_count_vector} is an O(k) copy: the reads that
    rarest-first style policies and swarm probes perform on every
    contact never rescan the occupied types. *)

module Pieceset = P2p_pieceset.Pieceset

type t

val create : unit -> t
val copy : t -> t

val of_counts : (Pieceset.t * int) list -> t
(** @raise Invalid_argument on a negative count; zero counts are dropped,
    duplicates summed. *)

val count : t -> Pieceset.t -> int
val n : t -> int
(** Total number of peers. *)

val occupied : t -> int
(** Number of distinct occupied types. *)

val same_type_pairs : t -> int
(** [Σ_C x_C²]: ordered same-type peer pairs (self-pairs included), O(1). *)

val add_peer : t -> Pieceset.t -> unit
val remove_peer : t -> Pieceset.t -> unit
(** @raise Invalid_argument if no such peer. *)

val move_peer : t -> from_:Pieceset.t -> to_:Pieceset.t -> unit
(** [remove_peer] + [add_peer] in one step. *)

val apply_move : t -> from_:int -> to_:int -> unit
(** One generator entry's move ({!Rate.transitions}): a peer leaves type
    index [from_] and joins type index [to_], where [-1] is outside the
    system ([from_ = -1]: an arrival; [to_ = -1]: a departure).
    @raise Invalid_argument if no peer has type [from_]. *)

val iter : t -> (Pieceset.t -> int -> unit) -> unit
(** Over occupied types only, in unspecified order. *)

val fold : t -> init:'a -> f:('a -> Pieceset.t -> int -> 'a) -> 'a

val to_alist : t -> (Pieceset.t * int) list
(** Sorted by type for deterministic printing. *)

val piece_copies : t -> k:int -> piece:int -> int
(** Number of peers holding the piece.  O(1): read off the incrementally
    maintained copy-count vector. *)

val piece_count_vector : t -> k:int -> int array
(** [piece_copies] for every piece at once — an O(k) fresh copy. *)

val sample_uniform_peer : t -> draw:(int -> int) -> Pieceset.t
(** Type of a peer chosen uniformly among all [n] peers; [draw m] must
    return a uniform index in [0, m-1].  One [draw n] into the peer bag;
    O(1) and allocation-free.
    @raise Invalid_argument on the empty state. *)

val sample_peer_not_of : t -> draw:(int -> int) -> Pieceset.t -> Pieceset.t
(** [sample_peer_not_of t ~draw c]: type of a peer chosen uniformly among
    the peers whose type is not [c]: a few uniform bag draws (exact
    rejection), then an exact scan of the other types once [c] holds
    nearly every peer.  Allocation-free.
    @raise Invalid_argument if every peer has type [c]. *)

type pair = { mutable uploader : Pieceset.t; mutable downloader : Pieceset.t }

val sample_distinct_pair : t -> draw:(int -> int) -> pair -> unit
(** Write into [pair] an ordered (uploader, downloader) pair of peers
    drawn uniformly among the [n² − Σ_C x_C²] pairs whose types differ:
    a few pairs of uniform bag draws (exact rejection), then an exact
    weighted scan of the occupied types.
    Allocation-free.  @raise Invalid_argument if every peer has one type. *)

val bag_view : t -> Pieceset.t array * (Pieceset.t * int list) list
(** The peer bag, for invariant checks: the type at each position
    [0, n), and for each occupied type its positions in list order.
    Builds the bag if no draw has yet. *)

val count_subset_peers : t -> Pieceset.t -> int
(** [Σ_{C ⊆ S} x_C]: the paper's [E_S]. *)

val count_helpful_peers : t -> Pieceset.t -> int
(** [Σ_{C ⊄ S} x_C = x_{H_S}]: peers that can help a type-[S] peer. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
