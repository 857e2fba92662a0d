(** A sampling grid on the simulation clock: [0], [step], [step +. step],
    …, each point the one before plus [step].  Sums differ in the last
    bits from the products [i *. step] for a step such as [0.3], so a
    grid is only ever continued: a run cut into segments (the hybrid)
    hands each segment the same grid and samples exactly the points of
    an unsegmented run, and {!Series} re-expands its runs by {!after}. *)

type t = { step : float; mutable next : float }
(** [next]: the first point not yet walked ([nan] in a {!Series} before
    its first sample).  All-float, so flat. *)

val start : step:float -> t
(** The grid from [0.]; a step of [infinity] (a probe that does not
    sample) gives a grid with no point. *)

val after : t -> float -> float
(** [after g x = x +. g.step], the point one step after [x]. *)

val walk : t -> through:float -> horizon:float -> (float -> unit) -> unit
(** Call [f] at each point from [next] up to [through] and [horizon],
    in order, leaving [next] at the first point past them. *)
