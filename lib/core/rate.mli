(** Transition rates of the P2P Markov chain — Eq. (1) and the generator
    matrix [Q] of Section III.

    Two views are provided: the one closed-form evaluation of the paper's
    [Γ_{C, C∪{i}}] under random-useful selection (a dense kernel shared
    by the fluid right-hand side and the exact chains), and a generic
    enumeration of a state's generator row under an arbitrary
    piece-selection policy.  The row is a list of unit moves, the entry
    form every exact chain shares ({!Balance.rows}, {!Coded_chain}); it
    is the independent reference of the simulators' and the truncated
    chain's tests, and the row behind the exact Lyapunov drift of
    experiment E11 and the reachability search. *)

module Pieceset = P2p_pieceset.Pieceset

type kernel (** Scratch tables of {!gammas} for one [k]. *)

val kernel : k:int -> kernel

val gammas : ?us_scale:float -> Params.t -> kernel -> float array -> n:float -> float array
(** Eq. (1), [Γ_{C,C∪{i}} = (x_C/n)(U_s/(K−|C|) + μ Σ_{S ∋ i} x_S/|S−C|)],
    for every type and piece of the dense occupancies [x] ([x_S <= 0] is
    empty; [U_s] scaled by [us_scale], default 1): [Γ] at [C * k + i],
    exactly [+0.0] if [x_C <= 0], [n <= 0] or [i ∈ C], in an array the
    kernel owns.  The peer sums come from an O(K·3^K) subset transform,
    which regroups them: each [Γ] is within [(K + 2^(K−1) + 8)·u]
    relative ([u = 2^-53], to first order; one subnormal ulp where it
    underflows) of the per-[(C, i)] scan with a compensated sum.
    @raise Invalid_argument if the kernel was built for another [k]. *)

val gamma_c_i : Params.t -> State.t -> c:Pieceset.t -> piece:int -> float
(** {!gammas} at one [(C, i)] of a state; zero if [x_C = 0] or [piece ∈ C]. *)

val transfer_rate :
  policy:Policy.t -> Params.t -> State.t -> c:Pieceset.t -> piece:int -> float
(** The same aggregate rate under a general policy [h]:
    [(x_C/n)(U_s h_i(C, seed, x) + μ Σ_S x_S h_i(C, S, x))].
    Coincides with {!gamma_c_i} for {!Policy.random_useful}. *)

val transitions : ?policy:Policy.t -> Params.t -> State.t -> (int * int * float) list
(** Every outgoing transition with a positive rate (default policy:
    random-useful), as a move [(from_, to_, rate)] of one peer between
    type indices ({!Pieceset.to_index}), [-1] standing for outside the
    system: an arrival of type [C] is [(-1, C, λ_C)], a seed departure
    [(F, -1, γ x_F)], and a transfer of piece [i] to a type-[C] peer
    [(C, C ∪ {i}, rate)], with [-1] in place of [F] when γ = ∞ (the peer
    leaves on completion).  {!State.apply_move} applies one. *)
