(** Dynamic undirected graphs over integer node ids.

    The paper's model has every peer able to contact every other peer; its
    conclusion asks how the results adapt to other topologies.  This
    module is the substrate for that experiment: an adjacency structure
    that supports the churn of a P2P swarm — nodes appear with a handful
    of random attachments and disappear with all their edges — with O(1)
    expected operations and uniform neighbor sampling.

    Node ids are arbitrary nonnegative integers supplied by the caller
    (the simulator uses peer ids). *)

type t

val create : unit -> t
val node_count : t -> int
val edge_count : t -> int
val mem_edge : t -> int -> int -> bool

val add_node : t -> int -> unit
(** @raise Invalid_argument if the node already exists. *)

val remove_node : t -> int -> unit
(** Removes the node and every incident edge.
    @raise Invalid_argument if absent. *)

val add_edge : t -> int -> int -> unit
(** Idempotent; self-loops are rejected.
    @raise Invalid_argument if either endpoint is absent. *)

val remove_edge : t -> int -> int -> unit
(** Idempotent. *)

val degree : t -> int -> int
val neighbors : t -> int -> int array
(** A copy of the neighbor list. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit

val sample_neighbor : t -> int -> P2p_prng.Rng.t -> int option
(** Uniform over the node's neighbors; [None] if isolated. *)

val attach_uniform : t -> int -> degree:int -> P2p_prng.Rng.t -> unit
(** Connect an existing node to [min degree (others)] distinct nodes
    chosen uniformly among the other nodes — the arrival rule of a
    tracker that hands each newcomer a random peer set. *)

val mean_degree : t -> float
val connected_component_sizes : t -> int list
(** Sorted descending (BFS snapshot; for diagnostics). *)

val validate : t -> bool
(** Checks symmetry and degree bookkeeping (for tests). *)
