(** Streaming deterministic graph generators for large n.

    Each family emits an undirected edge stream straight into
    {!Csr.of_edges} — no {!Graph.t}, no adjacency matrix, no per-vertex
    boxed rows — so a million-node instance costs a few flat arrays.

    {b Determinism contract.} Every vertex draws from its own
    {!Prng.substream}[ seed v], so in the Erdős–Rényi and Watts–Strogatz
    families its forward edges are a function of [(seed, v)] alone: a row
    does not depend on the rows generated before it, and the same seed
    gives a byte-identical snapshot ({!Csr.equal}), which the property
    tests assert. Rows are generated in vertex order. The
    preferential-attachment family is inherently sequential (vertex [v]'s
    targets depend on the degrees accumulated by [0..v-1]) but still draws
    through per-vertex substreams.

    All three families patch connectivity deterministically when needed:
    components are chained by an edge between their smallest vertices, in
    ascending order. The games require connected instances; the patch
    count is telemetred ([scale.gen.patched]). *)

val ba : seed:int -> n:int -> m:int -> Csr.t
(** Barabási–Albert preferential attachment (repeated-nodes scheme):
    vertices [m..n-1] arrive in order and attach [m] edges to distinct
    targets drawn uniformly from the endpoint multiset of existing edges
    (the first arrival connects to [0..m-1]). Exactly [(n − m)·m] edges,
    connected by construction. Requires [1 <= m < n]. *)

val er : seed:int -> n:int -> avg_deg:float -> Csr.t
(** Erdős–Rényi G(n, p) with [p = avg_deg / (n − 1)]: each vertex [v]
    geometric-skip-samples its higher-numbered partners, so the cost is
    O(edges), not O(n²). Requires [n >= 2] and [avg_deg >= 0]. *)

val ws : seed:int -> n:int -> k:int -> beta:float -> Csr.t
(** Watts–Strogatz: ring lattice where each vertex links its [k] clockwise
    successors, then each lattice edge is rewired with probability [beta]
    to a uniform chord (not a self-loop, not a ring neighbour, not a
    duplicate of the vertex's other targets; after 64 rejected draws the
    lattice edge is kept). With [beta = 0] exactly [n·k] edges. Requires
    [k >= 1] and [2·k + 1 <= n]. *)
