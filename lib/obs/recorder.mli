(** The event log: one preallocated ring of packed engine rows, the only
    event sink a probe feeds, and the one writer that turns those rows
    into files.

    The ring is two flat arrays (timestamps, and the event code with
    two integer payload slots interleaved), so a live {!record} is four
    array stores and a few integer bumps — {e zero steady-state
    allocation} — and on the shared {!disabled} recorder one branch.
    Simulators feed it through the [Probe] emitters.

    Two destinations read the ring, each optional:

    - a {b full log} ([~log] at {!create}, the CLI's [--trace]): each
      time the ring fills, its rows are written to the log before they
      are overwritten, so the log holds every row of the run.  It is
      written to a temporary next to its path and renamed into place
      at {!close}: a crash mid-run leaves no torn log at the path.
    - {b snapshots} ({!dump}, {!auto_snapshot}, the CLI's
      [--flight-recorder]): the ring's current rows, published
      atomically, so any file at the dump path is complete.  That is
      the crash-survival story for SIGKILL, which cannot be caught:
      with {!auto_snapshot} the ring is republished every [every]
      records (rate-limited on the wall clock), leaving the last
      complete snapshot behind however the process dies.  Snapshot
      cadence reads the wall clock but never feeds back into the
      simulation — recorded runs stay bit-identical to bare runs.

    {b Files.}  The format follows the path extension.  [.json] is a
    Chrome trace-event array of instant events ([ph = "i"], [ts] in
    microseconds of {e simulation} time, 1 time unit = 1 s; open it in
    Perfetto).  Anything else is JSONL: a schema header line
    ([{"schema": "p2p-flight-recorder", "version": 2, "capacity": C,
    ...}]; a snapshot adds [recorded] and [dropped]) followed by one
    decoded row per line, oldest first:
    [{"t": <sim time>, "ev": "<name>", ...args}]. *)

(** {1 Rows}

    An engine event is a dense [(code, a, b)] integer row, decoded into
    named file fields per code: 0 [arrival] ([a] the piece-set index →
    [pieces] as ["{1,3}"], [b] → [held]); 1 [contact] ([seed],
    [useful] flags); 2 [transfer] ([a] the 1-based [piece], [b] the
    [completed] flag); 3–6 [transfer_lost] and the three departures (no
    payload); 7 [seed_toggle] ([up]); 8–9 the handoffs ([a] → [fluid],
    [b] the rounded population → [n]). *)

val n_event_codes : int
val code_name : int -> string

(** {1 The ring} *)

type t

val disabled : t
(** Recording into it is a no-op branch. *)

val create : ?capacity:int -> ?log:string -> unit -> t
(** A live recorder holding the last [capacity] events (default 4096,
    rounded up to a power of two), spilling every row to the full log
    at path [log] when one is given.
    @raise Invalid_argument if [capacity < 1]. *)

val live : t -> bool
val capacity : t -> int

val record : t -> time:float -> code:int -> a:int -> b:int -> unit
(** Append one event, overwriting the oldest once full.  When the ring
    fills, its rows are first written to the full log, if one is
    attached.  Alloc-free between fills. *)

val recorded : t -> int
(** Total events ever recorded (not capped at capacity). *)

val dropped : t -> int
(** Events overwritten in the ring: [max 0 (recorded - capacity)]. *)

val close : t -> unit
(** Write the rows the full log lacks, terminate it and rename it into
    place.  Idempotent; a no-op without a log. *)

val auto_snapshot : t -> every:int -> min_gap_s:float -> string -> unit
(** Republish the ring to the given path every [every] records, but at
    most once per [min_gap_s] seconds of wall time.  No-op on a dead
    recorder.
    @raise Invalid_argument if [every < 1] or [min_gap_s < 0]. *)

val dump : t -> string -> unit
(** Atomically publish the current ring contents (oldest first) to the
    path.  A dead recorder writes nothing. *)

val schema : string

val read_summary : string -> ((int * int * int) * (float * int) array, string) result
(** Parse a JSONL log or snapshot back: [(capacity, recorded, dropped)]
    plus the events as [(time, code)] rows, oldest first.  A full log's
    header carries only the capacity: it holds every row, so [recorded]
    is its row count and [dropped] is 0.  Tolerates a torn trailing
    line (quarantined, as everywhere else) but rejects wrong schemas,
    unknown event names and interior corruption. *)
