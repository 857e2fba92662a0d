(** Time-weighted average of a piecewise-constant signal.

    The CTMC observables of the paper — number of peers in the system,
    one-club fraction, per-type counts — are piecewise-constant in
    simulation time.  Their stationary expectations ([E\[N\]] of
    Theorem 1(b)) are time averages, not per-event averages, so each sample
    must be weighted by how long the signal held that value. *)

type t

val create : ?t0:float -> unit -> t
(** Start observing at time [t0] (default [0.]). *)

val observe : t -> time:float -> value:float -> unit
(** [observe t ~time ~value] records that the signal takes [value] from
    [time] onward.  Times must be nondecreasing.
    @raise Invalid_argument on a time before the previous observation. *)

val close : t -> time:float -> unit
(** Account for the segment between the last observation and [time] without
    changing the current value. *)

val average : t -> float
(** Time-weighted mean over everything observed so far; [nan] if no time
    has elapsed. *)

val elapsed : t -> float
val reset : t -> time:float -> unit
(** Forget history; keep the current value and restart the clock at
    [time] — used to drop a warm-up transient. *)
