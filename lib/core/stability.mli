(** The stability region — Theorem 1 and its network-coding analogue
    Theorem 15.

    For [0 < μ < γ ≤ ∞] the chain is transient when for some piece [k]

    {v λ_total > (U_s + Σ_{C ∋ k} λ_C (K + 1 − |C|)) / (1 − μ/γ)     (2) v}

    and positive recurrent (with finite stationary mean population) under
    the reversed strict inequality for every [k] (Eq. 3), which is
    equivalent to [Δ_S < 0] for every proper subset [S] (Eq. 4).  For
    [0 < γ ≤ μ] the chain is positive recurrent iff every piece can enter
    the system. *)

module Pieceset = P2p_pieceset.Pieceset

type verdict =
  | Transient  (** the population grows without bound with positive probability *)
  | Positive_recurrent  (** stable; stationary E[N] finite *)
  | Borderline  (** equality (within tolerance) in (2)/(3) for some piece *)

val pp_verdict : Format.formatter -> verdict -> unit
val verdict_to_string : verdict -> string

val threshold : Params.t -> piece:int -> float
(** The right-hand side of (2)/(3) for the given piece:
    [(U_s + Σ_{C ∋ k} λ_C (K + 1 − |C|)) / (1 − μ/γ)].  Only meaningful
    when [μ < γ]; [infinity] when the piece cannot become rare because
    [γ <= μ] makes the branching of peer seeds critical. *)

val binding_piece : Params.t -> int
(** The piece minimising {!threshold} — the one the missing piece syndrome
    would strike first. *)

val delta : Params.t -> s:Pieceset.t -> float
(** [Δ_S] of Eq. (4): negative for all proper [S] iff stable (when
    [μ < γ]). *)

val classify : ?tolerance:float -> Params.t -> verdict
(** Theorem 1 applied to the parameters.  [tolerance] is the relative slack
    within which an inequality counts as equality ([Borderline]);
    default [1e-9]. *)

val classify_detail : ?tolerance:float -> Params.t -> verdict * int * float
(** Adds the binding piece and the margin
    [(threshold − λ_total) / threshold] (positive inside the stable
    region). *)

val effective_params : Params.t -> uptime_fraction:float -> Params.t
(** The degraded-seed parameter set: [U_s] scaled by the long-run
    fraction of time the seed is available (see
    {!Faults.uptime_fraction}).  A seed on an alternating up/down
    renewal process delivers contacts at long-run rate
    [U_s · uptime_fraction], so Theorem 1 evaluated at the scaled rate
    predicts where the missing piece syndrome sets in under outages.
    @raise Invalid_argument if [uptime_fraction] is outside [0, 1]. *)

val classify_effective : ?tolerance:float -> Params.t -> uptime_fraction:float -> verdict
(** {!classify} of {!effective_params}: Eq. (2)/(3) at
    [U_s · uptime_fraction]. *)

val stable_lambda_limit : Params.t -> float
(** The largest total arrival rate keeping these parameters stable when
    all arrival rates are scaled proportionally: the infimum over pieces
    of the fixed point of [λ_total = threshold(λ)].  With proportional
    scaling both sides are linear in the scale, so this solves in closed
    form; [infinity] when [γ <= μ] and every piece can enter. *)

val equivalent_check : Params.t -> bool
(** Cross-check of the paper's remark: condition (3) for all pieces holds
    iff [Δ_S < 0] for all proper subsets [S].  Returns whether the two
    evaluations agree (used by tests; always [true] unless there is a
    bug). *)

(** {1 Peer classes: a heuristic region}

    Peers in classes with their own [μ_c], [γ_c] and arrival streams
    ({!Params.klass}, simulated by {!Sim_agent}) — the heterogeneous link
    speeds the paper's conclusion invites.  In a deep one-club a fresh
    peer seed is a former club member whose class follows the club's
    class mix [p_c] (the arrival mix of peers missing the rare piece), so
    the seed branching factor becomes [m̄ = Σ_c p_c μ_c/γ_c], and a
    class-[c] arrival holding the piece injects [K − |C| + μ_c/γ_c]
    uploads of it over its stay.  The heuristic threshold

    {v λ_total < (U_s + Σ_{c,C∋k} λ_{c,C}(K−|C|+μ_c/γ_c)) / (1 − m̄) + Σ_{c,C∋k} λ_{c,C} v}

    reduces to Theorem 1 for a single class.  It is a conjecture, not a
    theorem; experiment E18 probes it by simulation.  These functions
    read only the classes and the [k] and [U_s] given; they do not
    validate (see {!Params.check_classes}). *)

val mean_seed_offspring : Params.klass list -> piece:int -> float
(** [m̄]: expected one-club members served per fresh peer seed, with the
    seed's class drawn from the arrival mix of peers missing [piece]. *)

val class_threshold : k:int -> us:float -> Params.klass list -> piece:int -> float
(** The heuristic critical total arrival rate for the given piece;
    [infinity] when [m̄ >= 1] (supercritical seed branching). *)

val classify_classes : ?tolerance:float -> k:int -> us:float -> Params.klass list -> verdict
(** Min-threshold comparison across pieces, mirroring Theorem 1's
    structure; a piece that cannot enter makes it [Transient].  Exact for
    a single class: [classify_classes ~k ~us (Params.classes p)] is
    [classify p]. *)

(** Theorem 15: random linear network coding over [F_q].  Workload of the
    paper's motivating example: a fraction of peers arrive with one
    uniformly random coded piece, the rest with nothing. *)
module Coded : sig
  type gift_params = {
    q : int;  (** field size *)
    k : int;  (** number of data pieces K *)
    us : float;
    mu : float;
    gamma : float;  (** [infinity] allowed *)
    lambda0 : float;  (** arrival rate of empty-handed peers *)
    lambda1 : float;  (** arrival rate of peers holding one random coded piece *)
  }

  val f_of : gift_params -> float
  (** The gifted fraction [f = λ1 / (λ0 + λ1)]. *)

  val transient_f_threshold : q:int -> k:int -> float
  (** The paper's closed form (for [U_s = 0], [γ = ∞]): transient when
      [f < q / ((q−1) K)]. *)

  val recurrent_f_threshold_exact : q:int -> k:int -> float
  (** Exact threshold from (55): positive recurrent when
      [f > 1 / ((1−1/q)² (K − 1 + q/(q−1)))]. *)

  val recurrent_f_threshold_paper : q:int -> k:int -> float
  (** The paper's displayed approximation [q² / ((q−1)² K)]. *)

  val classify : ?tolerance:float -> gift_params -> verdict
  (** Theorem 15 for the gift workload, any [U_s >= 0], [γ ∈ (0, ∞]]:
      evaluates conditions (a) and (b) with
      [Σ_{V ⊄ V⁻} λ_V = λ1 (1 − 1/q)] (a uniformly random nonzero-or-zero
      coded vector lies outside a fixed hyperplane w.p. [1 − 1/q]).
      [Borderline] also covers the gap between the necessary and the
      sufficient condition. *)

  val uncoded_equivalent_is_transient : k:int -> f:float -> bool
  (** Theorem 1 verdict for the same workload {e without} coding (peers
      arrive with one uniformly chosen data piece): transient for every
      [f < 1] whenever [U_s = 0, γ = ∞] — the contrast the paper draws. *)

  type profile = {
    pq : int;  (** field size *)
    pk : int;  (** number of data pieces *)
    pus : float;
    pmu : float;
    pgamma : float;
    parrivals : (int * float) list;
        (** [(j, rate)]: peers arriving with [j] independent uniform random
            coded pieces *)
  }
  (** A general coded arrival profile.  The induced type distribution over
      subspaces is computed exactly from the rank law of random matrices
      over [F_q] ({!P2p_coding.Rank_dist}), turning Theorem 15's conditions
      into closed-form evaluations for any mix of gift sizes. *)

  val profile_of_gift : gift_params -> profile

  val classify_profile : ?tolerance:float -> profile -> verdict
  (** Theorem 15 for a general profile; agrees with {!classify} on gift
      workloads (a test checks this). *)

  val profile_thresholds : profile -> float * float
  (** [(transient_rhs, recurrent_rhs)]: the chain is transient when
      [λ_total] exceeds the first and positive recurrent when below the
      second (for [μ̃ < γ]). *)
end
