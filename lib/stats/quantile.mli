(** Exact empirical quantiles from collected samples. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1], by linear interpolation between order
    statistics. @raise Invalid_argument when empty or [q] out of range. *)

val median : t -> float
