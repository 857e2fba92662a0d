(** Wall-clock phase profiling of the simulator hot paths.

    Coarse-grained by design: a phase is a named region entered a handful
    of times per run (setup, the event loop, finalisation), not a
    per-event probe — so the clock reads never show up in the event
    loop's own profile.  {!disabled} follows the same dead-cell contract
    as {!Hist}: [start]/[stop] on it are a branch each, no clock read,
    no allocation beyond the shared dummy span.

    Accumulators are mutex-protected so replications running on several
    domains can share one profiler (the runner's aggregate view). *)

type t

val disabled : t
val create : unit -> t
val enabled : t -> bool

type span

val start : t -> string -> span
val stop : span -> unit
(** Adds the elapsed wall time to the span's phase.  Idempotence is not
    guaranteed; stop each span exactly once. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [start]/[stop] around the thunk, exception-safe. *)

val record_s : t -> string -> float -> unit
(** Credit [seconds] to a phase directly (e.g. re-attributing a wall
    measurement taken elsewhere). *)

val phases : t -> (string * (float * int)) list
(** [(name, (total seconds, times entered))], sorted by name. *)

val total_s : t -> float

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
(** One aligned line per phase with its share of the profiled total. *)
