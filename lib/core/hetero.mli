(** Heterogeneous peer classes — the adaptation the paper's conclusion
    invites ("heterogeneous link speeds").

    Peers belong to classes with their own contact rate [μ_c], seed-dwell
    rate [γ_c], and arrival streams.  The model is otherwise the paper's:
    random peer contact (a class-[c] peer's clock ticks at [μ_c]; the
    contacted peer is uniform over everyone), random useful piece upload,
    one fixed seed.

    The missing-piece-syndrome calculus generalises directly.  In a deep
    one-club, a fresh peer seed is a former club member whose class
    follows the club's class mix [p_c] (the arrival mix of peers missing
    the rare piece), so the seed branching factor becomes
    [m̄ = Σ_c p_c μ_c/γ_c], and a class-[c] gifted peer arriving with
    collection [C] causes [(K−|C|) μ_c/μ̄_dl + μ_c/γ_c] uploads … — we keep
    the simpler, exactly-stated special case in which all classes share
    the download environment and derive the {e heuristic} threshold

    {v λ_total < (U_s + Σ_{c,C∋k} λ_{c,C}(K−|C|+μ_c/γ_c)) / (1 − m̄) + Σ_{c,C∋k} λ_{c,C} v}

    reducing to Theorem 1 when there is a single class.  This is a
    conjecture, not a theorem; experiment E18 probes it by simulation. *)

module Pieceset = P2p_pieceset.Pieceset

type klass = {
  label : string;
  mu : float;  (** contact-upload rate of this class, > 0 *)
  gamma : float;  (** seed dwell rate; [infinity] = leave on completion *)
  arrivals : (Pieceset.t * float) list;  (** this class's arrival streams *)
}

type t = private { k : int; us : float; classes : klass array }

val make : k:int -> us:float -> classes:klass list -> t
(** @raise Invalid_argument on invalid rates, empty class list, or zero
    total arrivals. *)

val of_params : Params.t -> t
(** The homogeneous embedding (single class). *)

val lambda_total : t -> float

val mean_seed_offspring : t -> piece:int -> float
(** [m̄]: expected one-club members served per fresh peer seed, with the
    seed's class drawn from the arrival mix of peers missing [piece]. *)

val threshold : t -> piece:int -> float
(** The heuristic critical total arrival rate for the given piece;
    [infinity] when [m̄ >= 1] (supercritical seed branching). *)

val classify_heuristic : ?tolerance:float -> t -> Stability.verdict
(** Min-threshold comparison across pieces, mirroring Theorem 1's
    structure.  Exact for a single class (a test checks it against
    {!Stability.classify}). *)

(* ---- simulation ---- *)

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
      (** the [max_events] budget ran out before [horizon]; see
          {!Engine.stats.truncated} *)
  samples : (float * int) array;
  class_mean_n : float array;  (** time-average population per class *)
  class_mean_sojourn : float array;  (** [nan] where no departures *)
}

val simulate :
  ?sample_every:float ->
  ?max_events:int ->
  rng:P2p_prng.Rng.t ->
  t ->
  horizon:float ->
  stats
(** One run on {!Engine.drive}, without faults or probes; [sample_every]
    and [max_events] default as there. *)

val simulate_seeded :
  ?sample_every:float -> ?max_events:int -> seed:int -> t -> horizon:float -> stats
