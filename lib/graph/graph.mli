(** Mutable simple undirected graphs on a fixed vertex set [0 .. n-1].

    This is the working representation for swap dynamics: adjacency rows are
    growable int arrays, so an edge swap is two O(deg) row edits and BFS can
    run directly over the rows without building a snapshot. Self-loops and
    parallel edges are rejected. Vertex count is fixed at creation — network
    creation games never add or remove agents, only edges. *)

type t

val create : int -> t
(** [create n] is the empty graph on [n] vertices. [n >= 0]. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val degree : t -> int -> int

val mem_edge : t -> int -> int -> bool
(** O(min degree) scan. [mem_edge g v v] is [false]. *)

val add_edge : t -> int -> int -> unit
(** @raise Invalid_argument on self-loops, duplicate edges, or out-of-range
    endpoints. *)

val try_add_edge : t -> int -> int -> bool
(** Like {!add_edge} but returns [false] instead of raising when the edge is
    already present (still raises on self-loops / range errors). *)

val remove_edge : t -> int -> int -> unit
(** @raise Invalid_argument if the edge is absent. *)

val nth_neighbor : t -> int -> int -> int
(** [nth_neighbor g v i] is the [i]-th entry of [v]'s adjacency row, for
    [0 <= i < degree g v]. Row order is unspecified and changes under
    mutation. *)

val iter_neighbors : (int -> unit) -> t -> int -> unit
(** {b Warning}: iterates the live adjacency row. Mutating the graph from
    the callback (even add-then-undo) reorders rows and skips or repeats
    entries — snapshot with {!neighbors} first in that case. The same
    caveat applies to {!fold_neighbors}, {!iter_edges} and
    {!fold_edges}. *)

val fold_neighbors : ('acc -> int -> 'acc) -> 'acc -> t -> int -> 'acc

val exists_neighbor : (int -> bool) -> t -> int -> bool

val neighbors : t -> int -> int array
(** Fresh sorted array of neighbors. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Each edge visited once, with [u < v]. *)

val fold_edges : ('acc -> int -> int -> 'acc) -> 'acc -> t -> 'acc

val edges : t -> (int * int) list
(** Sorted list of edges, each with [u < v]. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n es] builds a graph; raises like {!add_edge} on bad input. *)

val copy : t -> t

val masks : t -> int array
(** [(masks g).(v)] has bit [w] set iff [vw] is an edge: one [int] per
    adjacency row, for the bit-parallel kernels on small graphs
    ({!Canon}, {!Orderly}, the equilibrium scan). Every mask is
    non-negative. @raise Invalid_argument past 62 vertices. *)

val equal : t -> t -> bool
(** Same vertex count and same edge set. *)

val hash : t -> int64
(** Order-independent 64-bit hash of the edge set (SplitMix64-mixed);
    used for cycle detection in dynamics. Equal graphs hash equal. *)

val max_degree : t -> int

val min_degree : t -> int
(** Minimum over all vertices; 0 for the empty graph on >= 1 vertices.
    @raise Invalid_argument on the 0-vertex graph. *)

val degree_sequence : t -> int array
(** Sorted descending. *)

val is_regular : t -> bool

val complement_edges : t -> (int * int) list
(** Non-edges [u < v]; the candidate set for insertion-stability checks. *)

val pp : Format.formatter -> t -> unit
(** Human-readable [n/m] plus the edge list (for debugging and test
    failures). *)

val to_string : t -> string
