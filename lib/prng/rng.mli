(** Deterministic pseudo-random number generator.

    The generator is xoshiro256**, seeded through SplitMix64 so that any
    64-bit seed yields a well-mixed initial state.  All simulation code in
    this repository draws randomness exclusively through this module, which
    makes every experiment reproducible from a single integer seed.

    Generators are mutable; use {!split} to derive statistically independent
    child streams (e.g. one stream per peer, one per arrival process) without
    sharing state.

    The state is the four xoshiro words in one 32-byte buffer, read and
    written unboxed, so drawing an [int] allocates nothing. *)

type t
(** Mutable generator state. *)

val of_seed : int -> t
(** [of_seed seed] creates a generator deterministically from [seed]. *)

val of_seed_pair : master:int -> stream:int -> t
(** [of_seed_pair ~master ~stream] derives the [stream]-th generator of
    the family rooted at [master], deterministically and without any
    shared state: the SplitMix64 seeding chain of [master] is perturbed
    by the golden-ratio-scrambled stream index before the xoshiro state
    is drawn.  Streams with the same [master] and distinct [stream]
    indices are statistically independent; this is the seed-derivation
    scheme of the Monte-Carlo replication runner, which uses
    [stream = replication index] so that replication results do not
    depend on how replications are scheduled across domains. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    statistically independent of the future output of [t]. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform on [0, n-1].  Uses unbiased rejection.
    @raise Invalid_argument if [n <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform on [lo, hi] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float
(** [float t] is uniform on [0, 1) with 53 bits of precision. *)

val float_pos : t -> float
(** [float_pos t] is uniform on (0, 1]; never returns [0.], so it is safe
    as the argument of [log]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p] (clamped to [0,1]). *)

val jump : t -> unit
(** [jump t] advances [t] by 2^128 steps of the underlying sequence;
    useful to partition one seed into long non-overlapping streams. *)

val pp : Format.formatter -> t -> unit
(** Prints the internal state (for debugging and golden tests). *)
