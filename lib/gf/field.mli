(** Finite fields GF(q) for prime powers q.

    Network coding (Section VIII-B) works over [F_q] with [q] a prime
    power; the paper's numeric example uses [q = 64].  Elements are encoded
    as integers in [0, q): for a prime field the residue itself, for an
    extension field GF(p^m) the base-p digit string of the polynomial
    representative.  Construction finds a monic irreducible polynomial by
    exhaustive search and, for [q <= 65536], builds discrete log/antilog
    tables over a primitive element so multiplication and inversion are
    O(1) lookups. *)

type t = {
  q : int;  (** field size *)
  p : int;  (** characteristic *)
  m : int;  (** extension degree; [q = p^m] *)
  add : int -> int -> int;
  sub : int -> int -> int;
  neg : int -> int;
  mul : int -> int -> int;
  inv : int -> int;  (** @raise Division_by_zero on 0 *)
  div : int -> int -> int;
  tables : (int array * int array) option;
      (** [(exp, log)] discrete log/antilog tables over a primitive
          element, for extension fields ([m >= 2]): [exp.(i) = g^i] for
          [i] in [0, q-2] and [log.(g^i) = i] with [log.(0) = -1].
          [None] for prime fields.  {!Kernel} compiles these into flat
          branch-free multiply/invert kernels. *)
}

val prime : int -> t
(** GF(p) for prime [p]. @raise Invalid_argument if [p] is not prime. *)

val extension : p:int -> m:int -> t
(** GF(p^m). @raise Invalid_argument unless [p] prime, [m >= 1] and
    [p^m <= 65536]. *)

val gf : int -> t
(** [gf q] for any prime power [q <= 65536]; factors [q] automatically.
    Memoised per [q] (thread-safe): repeated calls return the {e same}
    field value, so replicated runs never rebuild the log/antilog tables.
    @raise Invalid_argument if [q] is not a prime power in range. *)

val is_prime : int -> bool
(** Trial-division primality (exposed for tests). *)

val is_prime_power : int -> bool
(** Whether [q = p^m] for a prime [p] and [m >= 1]: the sizes of the
    finite fields. *)

val pow : t -> int -> int -> int
(** [pow f x n] is x^n in the field, n >= 0. *)
