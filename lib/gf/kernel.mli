(** Specialised GF(q) arithmetic kernels.

    {!Field.t} carries its arithmetic as a record of closures — two
    indirect calls per element on the row-operation hot path, plus an
    allocation per {!Mat.vec_axpy}.  A [Kernel.t] is the same arithmetic
    compiled into a first-order variant, dispatched {e once per row
    operation}:

    - [Gf2] — GF(2): add = xor, mul = and.
    - [Char2] — GF(2^m), m ≥ 2: add = xor of polynomial encodings;
      mul/inv via flat log/antilog tables (antilog doubled so the
      multiply path has no [mod]), plus, for m ≤ 7, the
      {!lane_products} table that scales a packed row one bit-plane at
      a time.
    - [Prime] — GF(p): modular add/mul, flat inverse table.
    - [Generic] — fallback to the field closures (odd-characteristic
      extension fields such as GF(9), GF(27)).

    Kernels are memoised per field size (thread-safe), like {!Field.gf}.
    All operations agree exactly with the source {!Field.t} — pinned by
    the kernel property tests across q ∈ {2, 3, 4, 8, 16, 256}.

    The packed row format of characteristic-2 fields (m-bit lanes in
    native-int words) lives in [P2p_coding.Subspace], not here.  The
    default build inlines small functions across modules, but
    [--profile dev] compiles with [-opaque], where a per-word helper in
    this module would cost a call per row operation however it is
    annotated. *)

type t =
  | Gf2
  | Char2 of { q : int; exp_ : int array; log_ : int array; lane_ : int array }
  | Prime of { p : int; inv_ : int array }
  | Generic of Field.t

val of_field : Field.t -> t
(** Compile (or fetch the memoised) kernel for the field. *)

val q : t -> int

(** {1 Element operations}

    Reference surface, semantically identical to the field closures. *)

val add : t -> int -> int -> int
val sub : t -> int -> int -> int
val neg : t -> int -> int
val mul : t -> int -> int -> int

val inv : t -> int -> int
(** @raise Division_by_zero on 0. *)

(** {1 In-place row kernels}

    Element vectors ([int array] of field elements, one per entry). *)

val axpy_into : t -> c:int -> x:int array -> y:int array -> unit
(** [y <- c·x + y], mutating [y].  No-op when [c = 0].
    @raise Invalid_argument on length mismatch. *)

val scale_into : t -> c:int -> int array -> unit
(** [v <- c·v] in place. *)

(** {1 Lane products}

    A GF(2^m) row packed as m-bit lanes, [63 / m] to a word, is scaled
    by [c] one bit-plane at a time: bit [b] of every lane, isolated,
    times [c·x^b].  Each lane's product stays below [2^m], so no carry
    crosses a lane.  That takes m multiplies per word, fewer than one
    log/antilog lookup per lane while [m < 63 / m]. *)

val lane_products : t -> int array
(** [c·x^b] at index [c·m + b] for every element [c] and [b < m]:
    [[|0; 1|]] over GF(2), the per-field table over GF(2^m) with
    [2 ≤ m ≤ 7] (at most 128·7 = 896 entries), and [[||]] otherwise.
    From m = 8 on a word has fewer lanes than a lane has bits, so those
    fields scale packed rows lane by lane through the log/antilog
    tables instead (a table would reach 1M entries at q = 2^16); odd
    characteristic has no lane format.  Built once per field and
    shared; never mutate it. *)

val ctz : int -> int
(** Count trailing zeros of a nonzero int: the lane pivot scan. *)
