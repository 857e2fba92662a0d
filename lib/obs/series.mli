(** Time-series collection of swarm probe samples.

    Wraps every probed observable — population, peer seeds, one-club
    size, rarest-piece copies, per-piece copies — in a
    [P2p_stats.Timeavg] accumulator (the signals are piecewise constant,
    so their honest means are time-weighted) while keeping the raw
    sample list for trajectory output and growth fits.

    The on-disk format is JSONL: a header line
    [{"schema":"p2p-swarm-probe","version":1,"k":K}] followed by one
    line per sample,
    [{"t":..,"n":..,"seeds":..,"club":..,"rarest":..,"rarest_n":..,"pieces":[..]}]
    ([rarest] is 1-based on the wire).  One list of row keys defines
    both directions: {!read} accepts exactly the row shape {!write}
    emits (those keys in that order, no whitespace, integer counts,
    [pieces] of length k, [rarest] in [1, k]), so [p2psim report] can
    render any probe file the CLI emitted. *)

type t

val create : k:int -> t
(** @raise Invalid_argument if [k < 1]. *)

val k : t -> int

val record : t -> Probe.sample -> unit
(** Append a sample; times must be nondecreasing (enforced by the
    underlying [Timeavg]). *)

val close : t -> time:float -> unit
(** Extend every time average through [time] (typically the horizon)
    without adding a sample. *)

val count : t -> int
val samples : t -> Probe.sample array
(** In record order. *)

val one_club_series : t -> (float * int) array
val population_series : t -> (float * int) array

val avg_n : t -> float
val avg_seeds : t -> float
val avg_one_club : t -> float
val avg_rarest_count : t -> float
val avg_piece : t -> int -> float
(** Time-weighted means; [nan] before any time has elapsed. *)

val write : t -> out_channel -> unit

val read : in_channel -> (t, string) result
(** Replays the samples through {!record} and {!close}s at the last
    sample time, so the time averages of a re-read series match the
    writer's (up to the final [close] time).  Rows are scanned in place,
    with no [Json.t] tree, and numbers convert as [Json] converts them.
    Blank lines are skipped and a last row without a newline is read;
    any other line that is not a {!write} row is an
    [Error "line N: ..."]. *)

val read_file : string -> (t, string) result
