(** A peer's knowledge under random linear network coding.

    With network coding the type of a peer [A] is the subspace
    [V_A ⊆ F_q^K] spanned by the coding vectors of the coded pieces it has
    received; [A] can decode once [dim V_A = K].  The tracker maintains
    the {e canonical} row-reduced echelon basis (unique per subspace)
    incrementally: an insert reduces the incoming vector against the
    basis, normalises, back-eliminates and splices it in at its pivot
    position — O(dim·K) in-place field operations, no allocation, and a
    basis bit-identical to batch [Mat.row_reduce] of the receive history.

    Over a characteristic-2 field GF(2^m) (GF(2) is m = 1) a row is
    packed into m-bit lanes, [63 / m] lanes per native-int word: K = 8
    over GF(16) is one word.  Adding rows is a word [lxor], scaling a
    word by c costs m multiplies (one per bit-plane, no carry crossing a
    lane), and the pivot scan is a count-trailing-zeros, so an insert is
    O(dim·K·m/63) word operations.  Odd-characteristic fields keep rows
    of K field elements.

    The [Mat.vec] API below is the reference surface; the [xvec] API is
    the allocation-free internal-format fast path the coded simulator
    drives. *)

type t

val create : P2p_gf.Field.t -> k:int -> t
(** Empty subspace of [F_q^K]. *)

val copy : t -> t
val field : t -> P2p_gf.Field.t
val dim : t -> int
val k : t -> int
val is_full : t -> bool
(** [dim = K]: the peer can decode the file. *)

val insert : t -> P2p_gf.Mat.vec -> bool
(** [insert t v] adds the coding vector [v]; returns [true] iff it was
    useful (increased the dimension).  The zero vector is never useful. *)

val contains : t -> P2p_gf.Mat.vec -> bool
(** Whether [v ∈ V]. *)

val subspace_leq : t -> t -> bool
(** [subspace_leq a b] iff [V_a ⊆ V_b]; [false] when the lengths differ.
    @raise Invalid_argument if [a] and [b] are over different fields. *)

val equal : t -> t -> bool
(** [equal a b] iff [V_a = V_b]: the same dimension and the same
    canonical basis, compared word for word with no reduction.
    @raise Invalid_argument if [a] and [b] are over different fields. *)

val can_help : uploader:t -> downloader:t -> bool
(** The coded usefulness test: [V_uploader ⊄ V_downloader]. *)

val random_member : t -> P2p_prng.Rng.t -> P2p_gf.Mat.vec
(** A uniformly random vector of the subspace: a random linear combination
    of the basis (this is what a peer transmits on contact).  The zero
    vector is a possible (useless) outcome, matching the model. *)

val useful_probability : uploader:t -> downloader:t -> float
(** Exact probability that a random member of the uploader's subspace is
    useful to the downloader: [1 − q^{dim(V_A ∩ V_B) − dim V_B}] with
    [A] = downloader, [B] = uploader (Section VIII-B). *)

val intersection_dim : t -> t -> int
(** [dim (V_a ∩ V_b)], via [dim a + dim b − dim (a + b)].
    @raise Invalid_argument if [a] and [b] differ in field or length. *)

val basis : t -> P2p_gf.Mat.vec array
(** The current row-reduced basis (copies). *)

val of_vectors : P2p_gf.Field.t -> k:int -> P2p_gf.Mat.vec list -> t

(** {1 Allocation-free fast path}

    An [xvec] is a coding vector in the subspace's internal row format:
    packed lane words over a characteristic-2 field, an element vector
    otherwise.  Scratch
    buffers are caller-owned and reused across events; any subspace with
    the same field and [k] shares the format. *)

type xvec = int array

val alloc_xvec : t -> xvec
(** A zeroed scratch row of the right width for this subspace's format. *)

val random_member_into : t -> P2p_prng.Rng.t -> xvec -> unit
(** {!random_member} into a caller scratch: one coefficient draw per
    basis row in pivot order (identical draw sequence), rows applied
    in place. *)

val random_full_into : t -> P2p_prng.Rng.t -> xvec -> unit
(** Uniform vector of [F_q^K] (what the fixed seed transmits): [K] draws
    in ascending index order, matching [Mat.random_vec]. *)

val insert_xvec : t -> xvec -> bool
(** {!insert} on the internal format.  Clobbers the scratch. *)

val contains_xvec : t -> xvec -> bool
(** {!contains} on the internal format.  Clobbers the scratch. *)

val first_uncovered_into : uploader:t -> downloader:t -> scratch:xvec -> xvec -> bool
(** Smart exchange (Remark 16): copy the first uploader basis row outside
    the downloader's subspace into the destination and return [true]; if
    the uploader is contained, zero the destination and return [false].
    [scratch] is clobbered.  Both subspaces must share field and [k]. *)
