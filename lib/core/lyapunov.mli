(** The Lyapunov functions of Section VII and their exact drift.

    For [0 < μ < γ ≤ ∞] the paper proves positive recurrence with

    {v W(x) = Σ_C r^{|C|} T_C,
      T_C = ½ E_C² + α E_C φ(H_C)   (C ≠ F),   T_F = ½ n²          (11/12) v}

    where [E_C = Σ_{C'⊆C} x_{C'}] counts peers that can still join type
    [C], [H_C = (Σ_{C'⊄C} (K−|C'|+μ/γ) x_{C'}) / (1−μ/γ)] is the stored
    helping potential, and [φ] is the truncated-quadratic ramp with
    parameters [d, β].  For [0 < γ ≤ μ] the variant [W'] (Eq. 43) replaces
    [α φ(H_C)] by [p φ(H'_C)] with [H'_C = Σ_{C'⊄C}(K+1−|C'|) x_{C'}].

    The coded system's Eq. (56) is the same function on another lattice
    of types: subspaces of [F_q^K] ordered by inclusion and graded by
    dimension, with [H] scaled by [(1−1/q)/(1−ρ̃)].  So the sum is written
    once, {!lattice_w}, over a count vector indexed by type id; {!w},
    {!w_prime} and {!Coded_chain.w} instantiate it.

    The drift [QW(x) = Σ_{x'} q(x,x')(W(x') − W(x))] is computed {e
    exactly} by applying each move of the generator row
    ({!Rate.transitions}) — experiment E11 verifies [QW(x) ≤ −ξ n] on
    large states inside the stability region, which is the content of
    Lemma 12 + Lemma 7. *)

module Pieceset = P2p_pieceset.Pieceset

type coeffs = {
  r : float;  (** geometric weight per piece, r ∈ (0, ½) *)
  d : float;  (** ramp start, large *)
  beta : float;  (** ramp curvature, small *)
  alpha : float;  (** mixing weight, close to 1 (γ > μ case) *)
  p_const : float;  (** the constant p of Eq. (44) (γ ≤ μ case) *)
}

val ramp_coeffs : jump:float -> coeffs
(** [r = 0.05], [α = 0.9], [p = 1], and the ramp of Lemma 12 for an [H]
    that one peer moves by at most [jump]: [d = 2 (jump + 1)],
    [β = min 0.1 ((1/α − 1)/jump²)]. *)

val default_coeffs : Params.t -> coeffs
(** Coefficients satisfying the side conditions of Lemma 12 (resp. Lemma
    13): [d > (K+μ/γ)/(1−μ/γ)], [β (K+μ/γ)²/(1−μ/γ)² ≤ 1/α − 1], [r]
    small; for [γ ≤ μ], [p] with [λ_{E_C} − p(U_s + λ*_{H_C}) < 0] for
    every proper [C]. *)

val phi : coeffs -> float -> float
(** The ramp function φ (nonincreasing, C¹, zero beyond [2d + 1/β]). *)

val phi_slope_bound : coeffs -> float -> float
(** φ'(x) — for tests of the Lipschitz bound of Lemma 19. *)

val lattice_w :
  coeffs ->
  leq:(int -> int -> bool) ->
  dim:(int -> int) ->
  top:int ->
  seeds:bool ->
  mix:float ->
  h_weight:(int -> float) ->
  h_scale:float ->
  int array ->
  float
(** [W = Σ_v r^{dim v} T_v] over the type ids [v] of a count vector [x]:
    [T_v = ½ E_v² + mix · E_v φ(H_v)] with [E_v = Σ_{leq v' v} x_{v'}] and
    [H_v = h_scale Σ_{not (leq v' v)} h_weight(v') x_{v'}], except
    [T_top = ½ n²], summed only when complete peers stay ([seeds]). *)

val e_c : State.t -> c:Pieceset.t -> int
(** [E_C]. *)

val h_c : Params.t -> State.t -> c:Pieceset.t -> float
(** [H_C] (uses μ/γ = 0 when γ = ∞). *)

val h_prime_c : Params.t -> State.t -> c:Pieceset.t -> float
(** [H'_C]. *)

val w : Params.t -> coeffs -> State.t -> float
(** Eq. (11) when γ < ∞, Eq. (12) when γ = ∞.
    @raise Invalid_argument when γ <= μ (use {!w_prime}). *)

val w_prime : Params.t -> coeffs -> State.t -> float
(** Eq. (43), the γ ≤ μ Lyapunov function. *)

val auto : Params.t -> coeffs -> State.t -> float
(** Selects {!w} or {!w_prime} by the parameter regime. *)

val drift : Params.t -> f:(State.t -> float) -> State.t -> float
(** Exact generator drift [Qf(x)]: [f] after each move of the row
    (random-useful policy). *)

val drift_counts : f:(int array -> float) -> (int * int * float) list -> int array -> float
(** [drift_counts ~f moves x]: [Σ rate (f(x') − f(x))] over the moves
    [(from_, to_, rate)] of [x]'s generator row, [x'] being [x] with one
    peer moved from id [from_] to id [to_] ([-1]: outside). *)

val drift_w : Params.t -> coeffs -> State.t -> float
(** [Q(auto)(x)]. *)

val lw : Params.t -> coeffs -> State.t -> float
(** The paper's approximation [LW] to the drift (Section VII):
    [LW = Σ_C r^{|C|} LT_C] with
    [LT_C = E_C·Q(E_C) + α·E_C·Q(φ(H_C))] for [C ≠ F] and [n·Q(n)] for
    [C = F] — the product rule with the quadratic cross terms dropped.
    Lemma 8 bounds [|QW − LW| ≤ M_φ (D_total + 1) · Θ(1)]; a test verifies
    that bound numerically. *)

val d_total : Params.t -> State.t -> float
(** [D_total]: the aggregate rate at which peers change type or depart —
    the normaliser in Lemma 8's bound. *)

val m_phi : coeffs -> float
(** [M_φ = 3d + 1/β], the paper's bound on [max φ]. *)

type scan_point = {
  state_desc : string;
  n : int;
  drift_value : float;
  drift_per_peer : float;  (** drift / n — should be ≤ −ξ < 0 for large n *)
}

val point : state_desc:string -> n:int -> float -> scan_point
(** The scan point of a drift value at a population [n]. *)

val scan_class_one :
  Params.t -> coeffs -> sizes:int list -> scan_point list
(** Drift at one-club-style states: for every proper type [S] and every
    size in [sizes], the state with all peers of type [S]. *)

val scan_class_two :
  Params.t -> coeffs -> rng:P2p_prng.Rng.t -> size:int -> samples:int -> scan_point list
(** Drift at random two-block states ([x_{C1}], [x_{C2}] each ≥ ε n). *)
