(** Piece-selection policies — the family [H] of Section VIII-A.

    A policy decides which piece an uploader sends to a downloader, given
    the entire network state.  The paper's usefulness constraint: whenever
    the uploader holds a piece the downloader lacks, a useful piece must be
    chosen.  Theorem 14 states that every such policy has the same
    stability region; experiment E7 verifies that empirically. *)

module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng

type uploader = Fixed_seed | Peer of Pieceset.t

val useful_pieces : k:int -> uploader:uploader -> downloader:Pieceset.t -> Pieceset.t
(** Pieces the uploader holds and the downloader lacks. *)

type t = {
  name : string;
  distribution :
    k:int -> state:State.t -> uploader:uploader -> downloader:Pieceset.t -> (int * float) list;
      (** The paper's [h_·(A, B, x)]: pairs [(piece, probability)] with
          positive probabilities summing to 1, supported on useful pieces.
          Must be called only when a useful piece exists.  This is the
          {e specification}: readable, list-based, checked by
          {!validate_distribution} — and what the chi-square tests hold
          {!sample_fast} against. *)
  sample_fast :
    rng:Rng.t ->
    k:int ->
    state:State.t ->
    uploader:uploader ->
    downloader:Pieceset.t ->
    int option;
      (** Allocation-free sampler agreeing in distribution with
          [distribution] (the draw sequence may differ).  Returns [None]
          iff no useful piece exists.  This is what the simulators call on
          every contact; the built-in policies sample the useful bitset
          directly instead of materialising the list. *)
}

val of_distribution :
  name:string ->
  (k:int -> state:State.t -> uploader:uploader -> downloader:Pieceset.t -> (int * float) list) ->
  t
(** Build a policy from its spec distribution alone; [sample_fast] falls
    back to materialising the list and drawing categorically.  For exotic
    or experimental policies where the hot path does not matter. *)

val random_useful : t
(** Uniform over useful pieces — the baseline policy of Theorem 1. *)

val rarest_first : t
(** Uniform over the useful pieces with the fewest copies in the network
    (counting every peer's holdings, as a tracker-assisted client could):
    {!rarest} over {!State.piece_copies}. *)

val rarest : rng:Rng.t -> copies:(int -> int) -> Pieceset.t -> int
(** [rarest ~rng ~copies useful] is the rarity rule of {!rarest_first} for
    any census: uniform over the pieces of the nonempty set [useful] with
    the fewest [copies].  One bounded draw from [rng]. *)

val most_common_first : t
(** Uniform over the useful pieces with the {e most} copies — a
    deliberately bad policy that still satisfies the usefulness
    constraint. *)

val sequential : t
(** Always the lowest-numbered useful piece (the in-order policy whose
    minimal closed set of states the paper discusses). *)

val sample :
  t ->
  rng:P2p_prng.Rng.t ->
  k:int ->
  state:State.t ->
  uploader:uploader ->
  downloader:Pieceset.t ->
  int option
(** Draw a piece, or [None] when the uploader cannot help.  Delegates to
    [sample_fast]. *)

val validate_distribution : (int * float) list -> useful:Pieceset.t -> bool
(** Checks support and normalisation (for tests and custom policies). *)
