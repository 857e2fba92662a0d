(** Time-series collection of swarm probe samples.

    Keeps the samples of every probed observable — population, peer
    seeds, one-club size, rarest-piece copies, per-piece copies — for
    trajectory output and growth fits, and takes their time-weighted
    means (the signals are piecewise constant) from the stored samples
    when asked.

    In memory and on disk a run of samples that differ only in their
    time is one entry: each sample after the first equals the one
    before but for a time exactly one grid step after it
    ({!Grid.after}, the step the engine's probe grid takes).  {!samples}
    and the series accessors re-expand the runs, so they return every
    recorded sample.

    The on-disk format is JSONL: a header line
    [{"schema":"p2p-swarm-probe","version":3,"k":K,"interval":I,"end":E,"samples":N}]
    followed by one line per run, in one of two shapes.  A keyed row,
    [{"t":..,"n":..,"seeds":..,"club":..,"rarest":..,"rarest_n":..,"pieces":[..],"r":R}]
    ([rarest] is 1-based on the wire; [,"r":R], the run's R >= 1 repeats
    after its first sample, is left out when there are none), carries
    every field.  A compact row, [[n,seeds,club,p1,..,pK]] or
    [[n,seeds,club,p1,..,pK,R]] (its length tells the two apart), leaves
    out what the reader can rebuild: its time is the grid point
    ({!Grid.after}) after the previous run's last sample, and its
    rarest fields are {!Probe.rarest} of its pieces.  {!write} emits a
    compact row exactly when both hold, bit for bit, so the first row,
    an off-grid sample and a hand-built sample whose rarest fields
    follow another rule are keyed, and every series reads back as it
    was written; an engine-written series has one keyed row, its first.
    [E] is the time the averages were closed at and [N] the number of
    samples the rows hold, which {!read} checks: a compact run row cut
    by one piece would otherwise read as a row without its R.  {!read}
    accepts exactly the row shapes {!write} emits (the keys in that
    order, no whitespace, integer counts, [pieces] of length k,
    [rarest] in [1, k]), so [p2psim report] can render any probe file
    the CLI emitted.  It also reads version 2 files, which have keyed
    rows only and no [samples], and version 1 files, whose header has
    no [interval] or [end] and whose rows have no [r]. *)

type t

val create : k:int -> interval:float -> t
(** [interval] is the probe grid's step, the one a run's samples are
    apart.
    @raise Invalid_argument if [k < 1] or [interval] is not finite and
    positive. *)

val k : t -> int

val record : t -> Probe.sample -> unit
(** Append a sample.  Times must be nondecreasing: a time before the
    previous sample's or close's (by more than [1e-12]) raises
    [Invalid_argument].  A sample that extends the current run
    allocates nothing. *)

val close : t -> time:float -> unit
(** End the time averages at [time] (typically the horizon), past the
    last sample, without adding one; {!write} records [time] as the
    header's [end].  Raises like {!record} on a time that goes back. *)

val count : t -> int

type cursor = private { mutable time : float }
(** The time of the sample {!iter} is at.  Its one field is a float, so
    the record is flat: reading it does not box. *)

val iter : t -> (cursor -> Probe.sample -> unit) -> unit
(** [iter t f] calls [f at s] once per recorded sample, in record order,
    in one pass over the stored runs: [at.time] is the sample's time and
    [s] the first sample of its run, which has the sample's counts (its
    own [time] is the run's start).  A run's times are re-expanded by
    the [+.] steps {!record} checked, so they are bit-identical to the
    recorded ones.  [at] is one record, updated in place: read it during
    the call.  Allocates nothing per sample. *)

val samples : t -> Probe.sample array
(** In record order: {!iter}'s samples, each with its own time. *)

val one_club_series : t -> (float * int) array
val population_series : t -> (float * int) array

type means = {
  n : float; seeds : float; one_club : float; rarest_count : float; pieces : float array;
}

val means : t -> means
(** Every signal's time-weighted mean ([pieces]: each piece's copies)
    from the first sample through the last {!close} or sample, in one
    pass over the stored runs; [nan] before any time has elapsed.  Each
    mean's bits are a [P2p_stats.Timeavg]'s fed that signal in order. *)

val write : t -> out_channel -> unit

val read : in_channel -> (t, string) result
(** Replays the samples through {!record}, re-expanding each run onto
    the grid, and {!close}s at the header's [end] (version 1: at the
    last sample time), so the samples and time averages of a re-read
    series are bit-identical to the writer's.  Rows are scanned in
    place, with no [Json.t] tree, and numbers convert as [Json] converts
    them.  Blank lines are skipped and a last row without a newline is
    read; any other line that is not a {!write} row, an [r] in a
    version 1 file, a compact row in a version 1 or 2 file or before
    the first keyed row, a run length below 1, or a run past [end] is an
    [Error "line N: ..."].  A header of another version, a version 2
    or 3 header without a finite positive [interval] or a finite [end],
    a version 3 header without an integer [samples], and a [samples]
    that is not the rows' count are [Error]s too. *)

val read_file : string -> (t, string) result
