(** Minimal growable array with amortised O(1) [push].

    Replaces the [list ref] + [List.rev] + [Array.of_list] accumulation
    idiom on simulator sampling grids: a list cell plus a final array cell
    per sample becomes one amortised array slot, and the elements end up
    contiguous.  Not thread-safe; one owner per value. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** @raise Invalid_argument out of bounds. *)

val to_array : 'a t -> 'a array
(** Fresh array of the first [length] elements, in push order. *)

