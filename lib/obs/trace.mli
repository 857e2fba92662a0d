(** Structured event tracing: the exporter a probe writes engine event
    rows through (see [Probe.make ~trace]), and the format of the flight
    recorder's Chrome dumps.

    Two on-disk formats over the same [emit] calls:

    - {b Jsonl}: one JSON object per line —
      [{"t": <sim time>, "ev": "<name>", ...args}].  Greppable, streams,
      and {!Series.read}-style consumers can parse line by line.
    - {b Chrome}: the Chrome trace-event array format — open the file in
      [chrome://tracing] / Perfetto.  Instant events carry [ph = "i"]
      with [ts] in microseconds of {e simulation} time (1 sim time unit =
      1 s).

    [null] is the no-op sink: [emit] on it is one match, no allocation,
    so call sites can be left unguarded outside hot loops.  Hot loops
    should still skip event {e construction} when [enabled] is false. *)

type format = Jsonl | Chrome

type t

val null : t
val enabled : t -> bool

val create : format:format -> out_channel -> t
(** The caller keeps ownership of the channel; {!close} only terminates
    the format (Chrome's closing bracket) and flushes. *)

val to_file : string -> t
(** Streams to a temporary file next to [path] and atomically renames it
    to [path] at {!close} — a crash mid-run never leaves a torn trace at
    [path].  Owns the channel: {!close} also closes it.  The format is
    {!Chrome} when the path ends in [.json], {!Jsonl} otherwise. *)

val emit : t -> time:float -> name:string -> args:(string * Json.t) list -> unit
(** Record an instant event at simulation time [time]. *)

val events_written : t -> int

val close : t -> unit
(** Idempotent. *)
