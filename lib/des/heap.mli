(** Min-heap keyed by float timestamps, with O(log n) removal of arbitrary
    entries via handles.

    The scheduled-event queue of [Peers] (dwelling seeds) and [Mg_inf].
    Handles allow a peer's pending
    clock tick to be cancelled when the peer departs, which the
    agent-level P2P simulator does constantly. *)

type 'a t

type handle
(** A stable reference to an inserted element. *)

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool

val insert : 'a t -> key:float -> 'a -> handle
(** Insert an element with priority [key]; smaller keys pop first.  Ties
    break by insertion order (FIFO), which keeps simulations deterministic. *)

val min_key : 'a t -> float option
val pop_min : 'a t -> (float * 'a) option

val remove : 'a t -> handle -> bool
(** [remove t h] deletes the element referenced by [h]; returns [false] if
    it was already popped or removed. *)

val mem : 'a t -> handle -> bool
(** Whether the handle still references a queued element. *)

val clear : 'a t -> unit

val validate : 'a t -> bool
(** Checks the heap invariant; for tests. *)
