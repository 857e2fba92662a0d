(** Fixed-bucket log2 (HDR-style) histograms for hot-path cost
    attribution.

    A histogram is 64 integer buckets over a geometric grid: bucket [b]
    (for [1 <= b <= 62]) holds values in [[2^(b-32), 2^(b-31))], bucket
    0 absorbs everything below [2^-31] (including zero and junk), and
    bucket 63 everything from [2^31] up.  One grid covers both
    nanosecond-scale durations recorded in seconds (1 ns ≈ bucket 2,
    1 s = bucket 32) and event counts up to two billion.

    The overhead contract is the dead-cell one: {!record} on a live
    histogram is integer arithmetic and float-array stores — {e no
    allocation} — and on a dead one (from {!disabled}) it is a single
    branch.  A test pins zero heap growth per record.

    {!merge} is associative and commutative on everything integral
    (buckets, counts, min/max up to float compare); the running [sum]
    is a float accumulator and merges associatively only up to
    rounding.  That makes per-domain histograms safe to combine in any
    join order.

    {b Sampled timers.}  Reading even a monotonic clock twice per event
    costs ~5-15% at the engine's millions of events per second, so
    {!timer} samples: every [period]-th {!tick} returns a start stamp
    (and the others return [0.0], telling {!tock} to skip).  The
    histogram then holds a 1-in-[period] sample of per-call durations —
    multiply [sum] by [sample_period] to estimate total cost. *)

type t

val disabled : t
(** The shared dead histogram: recording into it is a no-op branch. *)

val create : unit -> t
val live : t -> bool

val record : t -> float -> unit
(** Count [v] into its log2 bucket and update count/sum/min/max.
    Alloc-free; call freely from hot loops. *)

val record_unit : t -> unit
(** Exactly [record t 1.0], specialised for per-event counters: the
    bucket and extrema are compile-time constants, so the update is two
    integer bumps and one float add.  Used by the probe on every engine
    event. *)

val count : t -> int
val sum : t -> float

val mean : t -> float
(** [nan] when empty. *)

val min_value : t -> float
(** Smallest recorded value; [nan] when empty. *)

val max_value : t -> float
(** Largest recorded value; [nan] when empty. *)

val buckets : t -> int array
(** A fresh copy of the 64 bucket counts. *)

val bucket_lower_bound : int -> float
(** Inclusive lower edge of bucket [b]; [0.0] for bucket 0. *)

val quantile : t -> float -> float
(** Lower edge of the bucket containing the [q]-quantile ([0 <= q <= 1]);
    [nan] when empty. *)

val sample_period : t -> int
(** The sampling period of the last {!timer} attached (1 when values
    were recorded directly). *)

val merge : t -> t -> t
(** Pointwise sum into a fresh histogram.  {!disabled} (or any empty
    histogram) is a zero element. *)

val merge_into : into:t -> t -> unit
(** Accumulate [src] into [into] in place (both must be live; a dead
    [src] is a no-op). *)

(** {1 Sampled timers} *)

type timer

val timer : ?period:int -> t -> timer
(** A sampled stopwatch over [t]; default [period] 256.  A timer over a
    dead histogram never reads the clock.
    @raise Invalid_argument if [period < 1]. *)

val tick : timer -> float
(** Start-of-span: returns a monotonic stamp on sampled calls, [0.0]
    otherwise.  Alloc-free either way. *)

val tock : timer -> float -> unit
(** End-of-span: records the duration when the matching {!tick}
    returned a stamp, otherwise does nothing. *)

(** {1 Named groups} *)

type group
(** A registry of named histograms, dead or live as a whole — the same
    disabled/live split as {!Profile}.  Registration
    ({!get}) is mutex-guarded and cheap but not hot-path; fetch
    instruments once, then {!record} freely. *)

val disabled_group : group
val group : unit -> group
val enabled : group -> bool

val get : group -> string -> t
(** Register (or re-fetch) the named histogram; dead when the group is
    disabled. *)

val hists : group -> (string * t) list
(** Live histograms sorted by name. *)

(** {1 Serialisation} *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val write_group_file : group -> string -> unit
(** Atomically (write-then-rename) publish the group as a single JSON
    document: [{"schema": "p2p-hist", "version": 1, "hists": {...}}]. *)

val read_group_file : string -> ((string * t) list, string) result

val pp_named : Format.formatter -> string * t -> unit
(** Render one named histogram: summary line plus a bar per non-empty
    bucket. *)
