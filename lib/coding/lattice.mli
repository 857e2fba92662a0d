(** The lattice of subspaces of [F_q^K] — the coded type space.

    Under network coding the peer types are the subspaces [V ⊆ F_q^K]
    (Section VIII-B).  For small [q^K] we enumerate them all, precompute
    the order relation, intersections and element counts, and derive the
    exact quantities the type-level coded Markov chain needs:

    - the probability that a uniform member of [U] (zero included) moves a
      type-[V] peer to type [W];
    - the distribution of the span of [j] uniform random vectors (the
      arrival-type law of a peer gifted [j] coded pieces), by Möbius-style
      inversion of [P(span ⊆ V) = (|V|/q^K)^j] along the lattice.

    Vectors are encoded as integers in [0, q^K) via base-q digits; a
    subspace is stored as the sorted array of its member codes. *)

type t
(** The full lattice for one [(q, K)]. *)

type subspace = int
(** Index of a subspace within the lattice's enumeration. *)

val build : q:int -> k:int -> t
(** Enumerate every subspace.  Practical for [q^K <= 256] (e.g. q=2 K≤8,
    q=3 K≤5, q=4 K≤4); the subspace count grows with the Gaussian binomials.
    @raise Invalid_argument when [q^K > 256] or [q] is not a prime power. *)

val q : t -> int
val k : t -> int
val count : t -> int
(** Number of subspaces. *)

val dim : t -> subspace -> int
val size : t -> subspace -> int
(** [q^dim]. *)

val zero : t -> subspace
(** The trivial subspace [{0}]. *)

val full : t -> subspace
(** [F_q^K] itself: the last index, as indices ascend by dimension. *)

val leq : t -> subspace -> subspace -> bool
(** Containment. *)

val inter : t -> subspace -> subspace -> subspace
val join : t -> subspace -> subspace -> subspace
(** Smallest subspace containing both. *)

val covers : t -> subspace -> subspace array
(** The subspaces one dimension above that contain the given one. *)

val hyperplanes : t -> subspace array
(** All subspaces of dimension [K−1]. *)

val members : t -> subspace -> int array
(** Sorted member vector codes (always starts with 0). *)

val upload_move_probability :
  t -> uploader:subspace -> downloader:subspace -> target:subspace -> float
(** Probability that a uniformly random member of the uploader's subspace
    (the transmitted coded piece) takes the downloader from its type to
    exactly [target].  Nonzero only when [target] covers the downloader
    within [join downloader uploader]; the no-move (useless) probability
    is [|downloader ∩ uploader| / |uploader|]. *)

val seed_move_probability : t -> downloader:subspace -> target:subspace -> float
(** Same for the fixed seed, which transmits a uniform vector of
    [F_q^K]. *)

val span_distribution : t -> coded:int -> float array
(** [span_distribution t ~coded:j] — entry [v] is the probability that [j]
    i.i.d. uniform vectors span exactly subspace [v].  Sums to 1. *)

val dim_of_vector_span : t -> int array -> subspace
(** The subspace spanned by the given member codes (for tests). *)
