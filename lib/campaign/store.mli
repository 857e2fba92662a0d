(** Crash-safe JSONL result store with segment rotation.

    On-disk layout of a campaign directory:

    {v
    DIR/
      spec.json                 the spec (atomic write, never rewritten)
      checkpoint.json           progress snapshot (atomic write, replaced)
      segments/seg-000001.jsonl sealed segments (atomic rename, immutable)
      active.jsonl              the open segment (append + flush per record)
      quarantine/tear-*.bin     torn tails recovered at resume
      results.jsonl             the merged store, written at completion
    v}

    The write discipline that makes SIGKILL at any instant recoverable:

    - every record is one line, appended and flushed before the cell is
      considered done;
    - a {e seal} atomically renames the active segment into [segments/];
      sealed segments are never written again;
    - [checkpoint.json] and [results.jsonl] only ever appear via
      write-tmp-then-rename, so they are complete or absent, never torn;
    - at {!resume}, sealed segments are trusted, and the active segment
      is read with the tolerant JSONL reader: a torn trailing line is
      moved to [quarantine/] and its cell re-runs, which — cells being
      deterministic — reproduces the identical bytes.

    The store deals in pre-rendered record {e lines} (strings), so the
    merged [results.jsonl] is the exact concatenation of what was
    appended, independent of where seals and crashes landed: an
    interrupted-and-resumed campaign is byte-identical to an
    uninterrupted one. *)

module Json = P2p_obs.Json

type t

val create : dir:string -> spec_json:Json.t -> spec_hash:string -> (t, string) result
(** Initialise a fresh campaign directory (created if missing; must not
    already contain campaign state). *)

type recovery = {
  records : Json.t list;  (** every intact record, in append order *)
  quarantined_bytes : int;  (** size of the torn tail moved aside; 0 = clean *)
}

val resume : dir:string -> (t * Json.t * recovery, string) result
(** Reopen an existing campaign directory: returns the store, the spec
    document, and the recovered records.  Fails if the directory holds
    no campaign, a sealed segment is corrupt, or an interior record of
    the active segment is malformed. *)

val append : t -> string -> unit
(** Append one record line (newline added) to the active segment and
    flush it. *)

val records : t -> int
(** Records persisted so far (recovered + appended). *)

val seal : t -> unit
(** Rotate a non-empty active segment into [segments/] (atomic rename)
    and open a fresh one. *)

val checkpoint : t -> complete:bool -> interrupted:bool -> unit
(** Atomically replace [checkpoint.json] with the current progress. *)

val finalise : t -> unit
(** Seal the active segment, merge every sealed segment into
    [results.jsonl] (atomic write), and checkpoint as complete. *)

val close : t -> unit

(** {1 Read-only inspection} *)

type status = {
  spec : Json.t option;
  checkpoint : Json.t option;
  store_records : Json.t list;
  segments : int;
  quarantined : int;  (** quarantined tear files present *)
  complete : bool;  (** [results.jsonl] exists *)
}

val read_status : dir:string -> (status, string) result
(** Inspect a campaign directory without touching it (safe on a live or
    dead campaign; the active segment is read tolerantly). *)

val results_path : dir:string -> string
