(** Vectors and matrices over a finite field.

    Coding vectors are rows in [F_q^K]; the type of a peer under network
    coding is the row space of the coding vectors it holds.  This module
    supplies row reduction, rank, and membership tests used by the
    subspace tracker. *)

type vec = int array
(** A row vector; entries must be field elements in [0, q). *)

val vec_add : Field.t -> vec -> vec -> vec
val vec_scale : Field.t -> int -> vec -> vec
val vec_axpy : Field.t -> int -> vec -> vec -> vec
(** [vec_axpy f c x y] is [c·x + y]. *)

val random_vec : Field.t -> (int -> int) -> int -> vec
(** [random_vec f draw n]: each entry uniform over the field; [draw k]
    must return a uniform sample on [0, k-1]. *)

val rank : Field.t -> vec array -> int
(** Rank of the matrix whose rows are the given vectors (inputs not
    mutated). *)

val row_reduce : Field.t -> vec array -> vec array
(** Row-reduced echelon basis of the row space (nonzero rows only, pivots
    normalised to 1, sorted by pivot column).  This basis is the {e unique}
    canonical RREF of the row space — the incremental tracker in
    {!P2p_coding.Subspace} maintains the same basis vector-by-vector.
    @raise Invalid_argument if the rows have differing lengths. *)

val in_row_space : Field.t -> basis:vec array -> vec -> bool
(** Membership test against a row-reduced [basis] (as produced by
    {!row_reduce}). *)

val reduce_against : Field.t -> basis:vec array -> vec -> vec
(** Eliminate the pivots of [basis] from the vector; the result is zero
    iff the vector lies in the row space. *)
