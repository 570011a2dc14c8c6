(** Mutable CSR with per-row slack: the graph representation of the
    large-n dynamics engine.

    {!Graph.t} pays a pointer indirection and an unsorted row per vertex;
    {!Csr.t} is contiguous but frozen. This structure keeps all adjacency
    targets in one int arena like CSR, leaves a little spare capacity after
    each row, and supports single-edge insertion/removal by shifting within
    the row (rows stay {e sorted} — the order {!Graph.neighbors} reports,
    which the byte-compat contract with {!Dynamics} depends on). A row that
    outgrows its capacity is relocated to the arena tail with doubled
    capacity; the abandoned slot is garbage we never reclaim, which is fine
    because dynamics apply few moves relative to [m].

    Not domain-safe under mutation. The BFS entry points below are the
    scalar kernels of the scale engine; the swap/deletion variants answer
    "distances after this move" {e without mutating the graph} by special-
    casing the source row, so an exact candidate evaluation is one BFS, not
    apply + BFS + undo. {!bfs_hop_stats} and {!drop_excess} give, from one
    BFS, the distances after {e each} deletion of a source edge, capped at
    two more than before: the drop rows of the engine's swap bound. *)

type t

val of_csr : ?slack:int -> Csr.t -> t
(** O(n + m). [slack] (default 2) spare slots per row. *)

val of_graph : ?slack:int -> Graph.t -> t

val to_csr : t -> Csr.t
(** Compact snapshot of the current state. *)

val to_graph : t -> Graph.t

val n : t -> int

val m : t -> int

val degree : t -> int -> int

val mem_edge : t -> int -> int -> bool
(** O(lg deg). *)

val neighbors : t -> int -> int array
(** Sorted copy of the row (same order as {!Graph.neighbors}). *)

val iter_neighbors : (int -> unit) -> t -> int -> unit

val add_edge : t -> int -> int -> unit
(** @raise Invalid_argument on self-loops, range errors or present edges. *)

val remove_edge : t -> int -> int -> unit
(** @raise Invalid_argument when the edge is absent. *)

val rows : t -> int array * int array * int array
(** [(off, len, arena)]: row [v] occupies [arena.(off.(v) ..
    off.(v) + len.(v) - 1)], sorted. Kernel access only — treat all three
    as read-only, and re-fetch after any mutation (relocation may swap the
    arena out from under a stale reference). *)

(** {1 Scalar BFS kernels}

    All take caller-owned scratch ([dist] and [queue], length >= n; [dist]
    is filled with −1 for unreached) and return
    [(reached, sum, ecc)] — vertices reached, the sum of finite distances
    from the source, and the largest one. *)

val bfs_stats : t -> int -> dist:int array -> queue:int array -> int * int * int

val bfs_delete_stats :
  t -> int -> drop:int -> dist:int array -> queue:int array -> int * int * int
(** Distances from [src] in [G − (src,drop)], without mutating [t]. The
    removed edge only matters when scanned from [src] (the reverse
    direction re-enters the settled source), so skipping one target in the
    source row is exact. *)

val bfs_swap_stats :
  t ->
  int ->
  drop:int ->
  add:int ->
  dist:int array ->
  queue:int array ->
  int * int * int
(** Distances from [src] in [G − (src,drop) + (src,add)], without mutating
    [t]. Requires [add] not currently adjacent to [src]. *)

(** {1 First hops}

    For a source v, a vertex u and a neighbour w of v, write d(u) for the
    distance from v and dd_w(u) for the distance in [G − (v,w)]. *)

val bfs_hop_stats :
  t ->
  int ->
  dist:int array ->
  hop:int array ->
  queue:int array ->
  int * int * int
(** {!bfs_stats} that also labels first hops: [hop.(u)] is the neighbour
    w of [src] when every shortest src–u path starts with the edge
    (src, w), and −1 when they start with different edges (and at [src]).
    Leaves the reached vertices in [queue.(0 .. reached − 1)], in BFS
    order. Entries of [hop] at unreached vertices are unspecified. *)

val drop_excess :
  t ->
  drops:int array ->
  reached:int ->
  dist:int array ->
  hop:int array ->
  queue:int array ->
  excess:int array ->
  int array
(** After [bfs_hop_stats t src] has filled [dist], [hop] and [queue] and
    returned [reached]: for every reached u, [excess.(u)] is 0 unless
    [hop.(u)] is one of [drops], and then it is
    [min(dd_w(u), d(u) + 2) − d(u)] (1 or 2) for w = [hop.(u)]. So for
    every drop w, [d(u) + (if hop.(u) = w then excess.(u) else 0)] is
    [min(dd_w(u), 2 + d(u))], since dd_w(u) = d(u) when a shortest path
    avoids (src, w). Returns, per drop, the sum of [excess] over the
    vertices whose first hop it is. One pass in BFS order; rows are scanned
    only at vertices whose first hop is a drop.
    @raise Invalid_argument unless [drops] are distinct neighbours of
    [src]. *)
