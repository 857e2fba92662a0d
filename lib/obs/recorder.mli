(** Flight recorder: a preallocated ring buffer of the last N engine
    events, dumped atomically on crash, timeout, signal, or demand.

    The recorder is two flat arrays (one float array for timestamps,
    one int array interleaving the event code and two integer payload
    slots), so a live {!record} is four array stores and two integer bumps — {e zero
    steady-state allocation} — and on the shared {!disabled} recorder a
    single branch.  Simulators feed it through the [Probe] emitters,
    which own the payload encoding per event code; a live trace gets
    the same rows.

    {b Dumps are atomic.}  {!dump} writes through the same
    write-to-temporary-then-rename discipline as every other emitter in
    the repo, so a reader never sees a torn dump: any file at the dump
    path is complete.  That is also the crash-survival story for
    SIGKILL, which cannot be caught: enable {!auto_snapshot} and the
    recorder republishes the ring every [every] records (rate-limited
    on the wall clock), leaving the last complete snapshot behind no
    matter how the process dies.  Snapshot cadence reads the wall
    clock but never feeds back into the simulation — recorded runs
    stay bit-identical to bare runs.

    Dump format follows the path extension like [Trace]: [.json] is a
    Chrome trace array, anything else is JSONL with a schema header
    line ([{"schema": "p2p-flight-recorder", "version": 1, ...}])
    followed by one event per line, oldest first. *)

type t

val disabled : t
(** Recording into it is a no-op branch. *)

val create : ?capacity:int -> unit -> t
(** A live recorder holding the last [capacity] events (default 4096,
    rounded up to a power of two).
    @raise Invalid_argument if [capacity < 1]. *)

val live : t -> bool
val capacity : t -> int

val record : t -> time:float -> code:int -> a:int -> b:int -> unit
(** Append one event, overwriting the oldest once full.  Alloc-free. *)

val recorded : t -> int
(** Total events ever recorded (not capped at capacity). *)

val dropped : t -> int
(** Events overwritten: [max 0 (recorded - capacity)]. *)

val auto_snapshot : t -> every:int -> min_gap_s:float -> code_name:(int -> string) -> string -> unit
(** Republish the ring to the given path every [every] records, but at
    most once per [min_gap_s] seconds of wall time.  No-op on a dead
    recorder.
    @raise Invalid_argument if [every < 1] or [min_gap_s < 0]. *)

val dump : t -> code_name:(int -> string) -> string -> unit
(** Atomically publish the current ring contents (oldest first) to the
    path.  A dead recorder writes nothing. *)

val schema : string

val read_summary :
  string ->
  ((int * int * int) * (float * int * int * int) array, string) result
(** Parse a JSONL dump back: [(capacity, recorded, dropped)] plus the
    events as [(time, code, a, b)] rows, oldest first.  Tolerates a
    torn trailing line (quarantined, as everywhere else) but rejects
    wrong schemas and interior corruption. *)
