(** Generic stationary-distribution solver for finite CTMCs.

    Given the sparse outgoing-transition structure of an irreducible
    finite chain, solve the global balance equations
    [π_j · out_j = Σ_i π_i · q_ij] by symmetric Gauss–Seidel, sweeping
    states in a caller-supplied order (ascending then descending).  For
    the birth-death-flavoured chains in this repository — population
    processes swept by population — convergence is orders of magnitude
    faster than Jacobi/power iteration.  The same sweep loop solves the
    first-step equations of the mean time to empty.

    Beside the solver sits the truncated state space the exact chains
    ({!Truncated}, {!Coded_chain}) live on: every vector of [dims]
    nonnegative counts with total [n <= n_max], where arrivals are
    rejected at the cap.  States are numbered in lexicographic order (the
    last count varies fastest) and ranked by the combinatorial number
    system, so no index table is stored.  Their generator rows are unit
    moves of one peer between slots, the entry form of
    {!Rate.transitions}, and the space sweeps them by population. *)

type sparse = {
  targets : int array array;  (** [targets.(i)]: successor states of [i] *)
  rates : float array array;  (** matching rates; same shape as [targets] *)
}

val solve :
  ?tol:float ->
  ?max_sweeps:int ->
  sparse ->
  sweep_key:int array ->
  float array
(** [solve s ~sweep_key] returns the stationary probability vector.
    [sweep_key.(i)] orders the sweeps (e.g. the population of state [i]).
    @raise Invalid_argument on shape mismatch.
    @raise Failure if Gauss–Seidel does not converge or mass vanishes. *)

type space
(** The count vectors of one truncated chain, with their populations. *)

val space : who:string -> dims:int -> n_max:int -> space
(** The [C(n_max + dims, dims)] vectors of [dims] counts with total
    [<= n_max].
    @raise Invalid_argument, prefixed by [who], if [n_max < 1] or the
    space would exceed 2 million states. *)

val size : space -> int

val rank : space -> int array -> int
(** The index of a vector (its first [dims] entries) in enumeration order.
    @raise Invalid_argument if it is not in the space. *)

val iter : space -> (int -> int array -> int -> unit) -> unit
(** [iter sp f] calls [f i x n] for every state [x] of population [n], in
    rank order [i].  [x] is a scratch vector, valid during the call and
    not to be changed. *)

val rows : space -> (int array -> int -> (from_:int -> to_:int -> float -> unit) -> unit) -> sparse
(** The generator of a population chain whose transitions move one peer
    between slots.  [rows sp fill] calls [fill x n emit] for every state
    [x] of population [n]; [emit ~from_ ~to_ rate] adds the transition
    that takes one peer out of slot [from_] and puts it in slot [to_],
    where a negative [from_] is an arrival and a negative [to_] a
    departure.  Arrivals at [n = n_max] are dropped; row entries keep the
    order they were emitted in.
    @raise Invalid_argument on a move out of an empty slot. *)

val stationary : ?tol:float -> ?max_sweeps:int -> space -> sparse -> float array
(** {!solve} swept by population. *)

val time_to_empty : ?tol:float -> ?max_sweeps:int -> space -> sparse -> start:int -> float
(** The expected time to first reach the empty state from state [start]
    (a rank): the first-step equations [h(x) = (1 + Σ_y q(x,y) h(y)) /
    out(x)], [h(empty) = 0], solved by the sweeps of {!stationary} until the
    start's value moves by less than [tol] (default 1e-10) relative, at
    most [max_sweeps] (default 500,000) times.
    @raise Failure if the sweeps do not settle. *)

val expect : space -> float array -> (int array -> int -> float) -> float
(** [expect sp pi f] is [Σ_i pi.(i) · f x_i n_i] over the states [x_i] of
    population [n_i], summed in rank order. *)
