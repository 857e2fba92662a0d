(** Minimal JSON values: enough to emit and re-read the telemetry files
    (event traces, probe series, bench baselines) without an external
    dependency.

    The emitter produces strict JSON.  Non-finite floats have no JSON
    encoding, so they serialise as [null]; a finite float prints as
    [%.15g] if that parses back to it, else as [%.17g] (so not always
    the shortest round trip), with ".0" appended when the text has no
    '.' or 'e' (see {!add_float}).  The parser accepts strict JSON
    (objects, arrays, strings with the standard escapes, numbers,
    booleans, null) and reports errors with a character offset. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_channel : out_channel -> t -> unit

val add_int : Buffer.t -> int -> unit
(** The decimal text of the int, as [string_of_int] gives it. *)

val add_float : Buffer.t -> float -> unit
(** A [Float]'s text.  For |f| in [2{^-6}, 1e15) other than a power of
    two the digits come from exact integer long division of the
    significand, rounded half-to-even; every other value goes through the
    C [%g] routine.  Both give the same bytes. *)

val of_string : string -> (t, string) result
(** [Error msg] carries the character offset of the failure. *)

val of_string_exn : string -> t
(** @raise Failure on malformed input. *)

(** {1 JSONL}

    Newline-delimited records: the format of the probe series, trace
    sinks, and the campaign result store. *)

type jsonl = {
  records : t list;  (** every complete (newline-terminated) record, in order *)
  remnant : string option;
      (** bytes after the final newline — the torn tail a crash
          mid-append leaves behind.  Never parsed, even when the bytes
          happen to form valid JSON (a tear can truncate a record to a
          shorter valid one); callers quarantine it and re-produce the
          record it belonged to. *)
}

val jsonl_of_string : string -> (jsonl, string) result
(** Tolerant JSONL reader: truncation at {e any} byte offset of a valid
    stream yields [Ok] — the complete lines parse, the torn tail comes
    back as [remnant] (a test pins this at every offset of a sample
    record).  Only a complete line that fails to parse — real interior
    corruption — is an [Error] (message names the line). *)

val read_jsonl_file : string -> (jsonl, string) result
(** {!jsonl_of_string} of the file's bytes; [Error] on I/O failure. *)

val first_record : string -> (t option, string) result
(** The file's first complete record under {!jsonl_of_string}'s rules,
    reading no further than its line: [Ok None] if there is none (say, a
    torn first line); [Error] on I/O failure or a corrupt line before it.
    Later lines are not checked; a reader that needs them reads them. *)

(** {1 Atomic file replacement} *)

val write_file_atomic : string -> (out_channel -> 'a) -> 'a
(** [write_file_atomic path writer] runs [writer] against a temporary
    file in the same directory, fsyncs, and renames it over [path]: the
    destination either keeps its previous content or holds the complete
    new content, never a torn prefix.  If [writer] raises, the temporary
    file is removed and [path] is untouched. *)

(** {1 Accessors} — shallow, total lookups used by the readers. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both convert; [Null] reads as [nan] (the emitter's
    encoding of non-finite floats). *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
