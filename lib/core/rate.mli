(** Transition rates of the P2P Markov chain — Eq. (1) and the generator
    matrix [Q] of Section III.

    Two views are provided: the one closed-form evaluation of the paper's
    [Γ_{C, C∪{i}}] under random-useful selection (a dense kernel shared
    by the fluid right-hand side and the exact chains), and a generic
    enumeration of every outgoing transition of a state under an arbitrary
    piece-selection policy.  The enumeration powers the aggregate
    simulator's correctness tests and the exact Lyapunov drift of
    experiment E11. *)

module Pieceset = P2p_pieceset.Pieceset

type transition =
  | Arrival of Pieceset.t  (** a new type-[C] peer appears *)
  | Seed_departure  (** one peer seed leaves (only when γ < ∞) *)
  | Transfer of { downloader : Pieceset.t; piece : int }
      (** a type-[downloader] peer receives [piece]; if that completes the
          file and γ = ∞ the peer leaves immediately *)

type kernel (** Scratch tables of {!gammas} for one [k]. *)

val kernel : k:int -> kernel

val gammas : ?us_scale:float -> Params.t -> kernel -> float array -> n:float -> float array
(** Eq. (1), [Γ_{C,C∪{i}} = (x_C/n)(U_s/(K−|C|) + μ Σ_{S ∋ i} x_S/|S−C|)],
    for every type and piece of the dense occupancies [x] ([x_S <= 0] is
    empty; [U_s] scaled by [us_scale], default 1): [Γ] at [C * k + i],
    zero if [x_C <= 0], [n <= 0] or [i ∈ C], in an array the kernel owns.
    Sums run over ascending [S], bit-for-bit the per-[(C, i)] scan.
    @raise Invalid_argument if the kernel was built for another [k]. *)

val gamma_c_i : Params.t -> State.t -> c:Pieceset.t -> piece:int -> float
(** {!gammas} at one [(C, i)] of a state; zero if [x_C = 0] or [piece ∈ C]. *)

val transfer_rate :
  policy:Policy.t -> Params.t -> State.t -> c:Pieceset.t -> piece:int -> float
(** The same aggregate rate under a general policy [h]:
    [(x_C/n)(U_s h_i(C, seed, x) + μ Σ_S x_S h_i(C, S, x))].
    Coincides with {!gamma_c_i} for {!Policy.random_useful}. *)

val transitions : ?policy:Policy.t -> Params.t -> State.t -> (transition * float) list
(** Every outgoing transition with a positive rate (default policy:
    random-useful). *)

val total_rate : ?policy:Policy.t -> Params.t -> State.t -> float

val apply : Params.t -> State.t -> transition -> unit
(** Mutate the state by one transition, implementing the γ = ∞ departure
    convention. @raise Invalid_argument on an impossible transition. *)
