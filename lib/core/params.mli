(** Model parameters (Section III).

    A parameter set fixes the whole network law: the number of pieces [K],
    the fixed seed's contact-upload rate [U_s], the peer contact-upload
    rate [μ], the peer-seed departure rate [γ] (with [γ = ∞] meaning peers
    leave the instant they complete the file), and the Poisson arrival
    rates [λ_C] for every piece collection [C] new peers may bring. *)

module Pieceset = P2p_pieceset.Pieceset

(** A class of peers with its own rates: the model generalised to
    heterogeneous peers, which the per-peer driver {!Peers} simulates
    and {!Stability.classify_classes} classifies heuristically.  A
    parameter set is the one-class case ({!classes}).  ['spec] is what
    an arriving peer brings: a piece set here, a number of coded pieces
    in the coded swarm ({!Sim_coded}). *)
type 'spec class_of = {
  label : string;
  mu : float;  (** contact-upload rate of this class, > 0 *)
  gamma : float;  (** seed dwell rate; [infinity] = leave on completion *)
  arrivals : ('spec * float) list;  (** this class's arrival streams *)
}

type klass = Pieceset.t class_of

type t = private {
  k : int;  (** number of pieces, K >= 1 *)
  us : float;  (** fixed seed contact rate U_s >= 0 *)
  mu : float;  (** peer contact rate μ > 0 *)
  gamma : float;  (** peer-seed departure rate; [infinity] = leave at once *)
  arrivals : (Pieceset.t * float) array;
      (** the [(C, λ_C)] pairs with [λ_C > 0], deduplicated *)
}

val classes : t -> klass list
(** The single class [p] describes, labelled ["all"]. *)

val make :
  k:int -> us:float -> mu:float -> gamma:float -> arrivals:(Pieceset.t * float) list -> t
(** Validates the model assumptions:
    - [1 <= k <= Pieceset.max_pieces], [us >= 0], [mu > 0], [gamma > 0];
    - every arrival type fits within [{0..k-1}] and has [λ_C >= 0]
      (zero-rate entries are dropped, duplicate types summed);
    - [λ_total > 0] (the paper's non-triviality assumption);
    - if [gamma = infinity] then [λ_F = 0] (the paper's convention).
    @raise Invalid_argument otherwise. *)

val check_classes : who:string -> k:int -> us:float -> klass list -> unit
(** The model assumptions {!make} checks, over any class list: [k] in
    range, [us >= 0], at least one class, each class's [mu > 0] and
    [gamma > 0], its arrival types within [K] at finite rates [>= 0] and
    no [λ_F > 0] at [γ = ∞], and a positive total arrival rate.
    @raise Invalid_argument prefixed by [who], naming the value and any
    class with a non-empty label. *)

val immediate_departure : t -> bool
(** [γ = ∞]. *)

val mu_over_gamma : t -> float
(** μ/γ with the [γ = ∞] convention giving 0. *)

val lambda_total : t -> float
val lambda : t -> Pieceset.t -> float
(** [λ_C] ; 0 for types that do not arrive. *)

val lambda_containing : t -> piece:int -> float
(** [Σ_{C ∋ piece} λ_C]: arrival rate of peers gifted with the piece. *)

val lambda_within : t -> Pieceset.t -> float
(** [Σ_{C ⊆ S} λ_C]: arrival rate of peers that can join the type-[S]
    group. *)

val full_set : t -> Pieceset.t
val piece_can_enter : t -> piece:int -> bool
(** Whether new copies of the piece can enter: [U_s > 0] or some arriving
    type contains it. *)

val with_gamma : t -> gamma:float -> t
val with_us : t -> us:float -> t
val with_arrivals : t -> arrivals:(Pieceset.t * float) list -> t

val pp : Format.formatter -> t -> unit
