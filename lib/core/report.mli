(** Minimal aligned-table and banner printing shared by the examples, the
    CLI, and the benchmark harness. *)

val banner : string -> unit
(** Prints a section header to stdout. *)

val subsection : string -> unit

val table : header:string list -> string list list -> unit
(** Prints rows aligned to column widths, then flushes stdout once. Rows
    shorter than the header are padded. *)

val kv : (string * string) list -> unit
(** Key-value block. *)

val fmt_float : float -> string
(** Compact float formatting ("1.234", "inf", "0.00507"). *)

val fmt_bool : bool -> string

val set_output_dir : string option -> unit
(** When set, every subsequent {!table} is also written as a CSV file
    [table_NNN_<slug>.csv] in that directory (created if missing), where
    the slug comes from the latest {!banner}.  Used by the benchmark
    harness to export every experiment's rows for external plotting. *)
