(** Declarative campaign specifications.

    A spec pins {e everything} a sweep's results depend on — model
    parameters, horizon, replication count, master seed, piece policy,
    fault model, and the cell geometry — so that a campaign is a pure
    function of its spec: two runs of the same spec produce byte-identical
    result stores, and a run resumed after a crash continues exactly
    where the dead one stopped.

    Two cell geometries:

    - {b Grid}: the full [lambda × U_s] product grid, every cell
      evaluated, row-major in [lambda] then [U_s].
    - {b Refine}: adaptive boundary refinement.  Round 0 evaluates a
      coarse grid; each later round bisects only the lattice edges whose
      endpoints got opposite simulated verdicts, homing in on the
      Theorem 1 stable/transient frontier with a fraction of the cells a
      uniform grid at the same resolution would need.  The refinement
      decision reads {e recorded} verdicts only, so a resumed campaign
      regenerates the identical cell sequence.

    Cells are addressed by integer lattice coordinates ([ix], [iy]) at
    the finest resolution, never by floats, so resume logic is immune to
    float-printing round trips. *)

module Json = P2p_obs.Json

type range = { lo : float; hi : float; steps : int }
(** [steps] evenly spaced values on [[lo, hi]] inclusive ([steps >= 2],
    or [steps = 1] meaning the single point [lo]). *)

type mode =
  | Grid of { lambda : range; us : range }
  | Refine of { lambda : float * float; us : float * float; initial : int; rounds : int }
      (** [initial] grid points per axis in round 0, then [rounds]
          bisection rounds along the verdict boundary. *)

type t = {
  name : string;
  hypothesis : string;  (** free-form hypothesis statement, e.g. "H-C1: ..." *)
  k : int;
  mu : float;
  gamma : float;  (** [infinity] = leave on completion *)
  horizon : float;
  reps : int;  (** replications per cell *)
  master_seed : int;
  policy : string;  (** "random" | "rarest" | "common" | "sequential" *)
  backend : string;
      (** "markov" (default) or "coded" — which simulator evaluates each
          cell.  Encoded in the spec JSON only when not the default, so
          existing markov specs keep their hashes (and result stores). *)
  q : int;  (** coded backend only: field size (default 16) *)
  faults : P2p_core.Faults.t;
  mode : mode;
}

val to_json : t -> Json.t
(** Canonical encoding: fixed field order, so {!hash} is stable. *)

val of_json : Json.t -> (t, string) result
(** Rejects a ["shards"] field other than 1: sharded cells were removed,
    and ignoring the field would run a different experiment. *)

val of_file : string -> (t, string) result
val hash : t -> string
(** Hex digest of the canonical encoding; recorded in the store and
    checkpoint, verified on resume. *)

(** {1 Cells} *)

type cell = {
  index : int;  (** global sequential id = position in the result store *)
  round : int;  (** 0 for grid cells *)
  ix : int;  (** lattice coordinate along [lambda], finest resolution *)
  iy : int;  (** lattice coordinate along [U_s], finest resolution *)
  lambda : float;
  us : float;
}

val round0_cells : t -> cell list
(** The cells of round 0 (the whole grid for [Grid] mode), in execution
    order. *)

val next_round_cells :
  t -> round:int -> verdicts:((int * int) * string) list -> next_index:int -> cell list
(** The cells of refinement round [round >= 1], derived from the
    verdicts recorded so far (lattice coords -> verdict string; only
    ["stable"] vs ["unstable"] disagreement triggers bisection).  Empty
    for [Grid] mode, for rounds past [rounds], and once the boundary is
    fully resolved.  Deterministic: candidates are generated sorted and
    deduplicated, and numbered from [next_index]. *)

val total_rounds : t -> int
(** 0 for [Grid]; [rounds] for [Refine]. *)

val grid_total : t -> int option
(** Total cell count when known up front ([Grid] mode); [None] for
    adaptive refinement. *)

val cell_params : t -> lambda:float -> us:float -> P2p_core.Params.t
(** Model parameters of a cell: empty-handed arrivals at rate [lambda],
    seed rate [us], and the spec's [k], [mu], [gamma]. *)

val policy_fun : t -> P2p_core.Policy.t
(** @raise Invalid_argument on an unknown policy name (checked at
    {!of_json} time too). *)
