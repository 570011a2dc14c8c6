(** The explicit graphs constructed in the paper.

    Each construction is accompanied by the structural data the paper's
    proof uses (vertex roles, closed-form distance oracles) so tests can
    verify not just the headline property but the proof's intermediate
    claims. *)

(** {1 Section 2: equilibrium trees} *)

val star : int -> Graph.t
(** Re-export of {!Generators.star}: the unique sum-equilibrium tree. *)

val double_star : int -> int -> Graph.t
(** Re-export of {!Generators.double_star}: the Figure 2 family; in max
    equilibrium iff both arms have >= 2 leaves. *)

(** {1 Section 3.1: the Theorem 5 graph (Figure 3)} *)

type theorem5_role =
  | Hub  (** the vertex [a] *)
  | Branch of int  (** [b_i], i in 1..3 *)
  | Cluster of int * int  (** [c_{i,k}], i in 1..3, k in 1..2 *)
  | Collector of int  (** [d_i], i in 1..3 *)

val theorem5_graph : Graph.t
(** The paper's 13-vertex, 21-edge diameter-3 construction, transcribed
    literally: hub [a] adjacent to [b_1..b_3]; each [b_i] adjacent to its
    cluster [c_{i,1}, c_{i,2}]; each [d_i] adjacent to its cluster;
    perfect matchings between clusters — parallel between C1–C2 and
    C2–C3, crossed between C1–C3 (the crossing gives girth 4).

    {b Reproduction finding:} this graph is {e not} in sum equilibrium as
    transcribed — [d_1] improves by swapping its edge to [c_{1,1}] onto
    [c_{2,1}] (the matched partner of the dropped vertex), gaining 1 each
    on [c_{2,1}], [b_2], [d_2] and losing only 1 each on [c_{1,1}] and
    [c_{3,2}]. The proof's Lemma-8 step assumed a loss of 2 on the dropped
    vertex, which fails exactly when the swap target is adjacent to it.
    Theorem 5's statement survives: see {!sum_diameter3_witness}, an
    11-vertex diameter-3 sum equilibrium verified exhaustively (including
    by an independent rebuilt-graph checker). *)

val theorem5_improving_swap : Swap.move
(** The violating move described above (delta −1). *)

val theorem5_variant : crossed:bool * bool * bool -> Graph.t
(** The Figure 3 wiring with each inter-cluster matching chosen parallel
    ([false]) or crossed ([true]), in the order (C₁–C₂, C₂–C₃, C₁–C₃).
    Only the parity of crossings matters up to isomorphism: odd parity
    (the paper's choice) has girth 4, even parity girth 3 — and {e both}
    classes admit the collector's improving swap, so no reading of the
    matching sentence rescues the construction. [theorem5_graph] is
    [theorem5_variant ~crossed:(false, false, true)]. *)

val sum_diameter3_witness : Graph.t
(** A verified diameter-3 sum equilibrium on 11 vertices: the Petersen
    graph with one pendant vertex. The Petersen graph is distance-regular,
    so re-attaching the pendant anywhere is cost-neutral; its girth 5 makes
    every swap around the rim lose at least as much as it gains. Exhaustive
    census further shows {e no} diameter-3 sum equilibrium exists with
    n <= 6, so small witnesses are genuinely scarce. *)

val cycle_with_pendant : int -> Graph.t
(** [cycle_with_pendant n]: C_n plus a pendant on vertex 0. {e Not} a sum
    equilibrium for any n (a cycle vertex improves by swapping onto the
    pendant's host); kept as a counterexample input for tests. *)

val sum_diameter3_minimal : Graph.t
(** The {e smallest possible} diameter-3 sum equilibrium: 8 vertices, 12
    edges, girth 3, degree sequence (4,4,3,3,3,3,2,2), automorphism group
    of order 2 (graph6 [GGEmUg]). Found by the annealing search of
    {!Hunt}, verified by the exhaustive checker and by an independent
    rebuilt-graph brute force; minimality follows from the exhaustive
    census (E4X): no connected graph on <= 7 vertices is a sum
    equilibrium of diameter 3. At n = 8 the search finds at least four
    non-isomorphic such equilibria. *)

val theorem5_role : int -> theorem5_role
(** Role of each vertex index in {!theorem5_graph}. *)

val theorem5_vertex : theorem5_role -> int
(** Inverse of {!theorem5_role}.
    @raise Invalid_argument on out-of-range roles. *)

val max_diameter4_small : Graph.t
(** A diameter-4 {e max} equilibrium on only 10 vertices: the 5-sunlet
    (C₅ with one pendant leaf per cycle vertex), m = 10, eccentricities
    {3, 4}. Found by {!Hunt} (max version), recognized as
    [Generators.sunlet 5], and verified exhaustively. The Theorem 12 torus
    needs n = 2·4² = 32 for the same diameter; the exhaustive census
    shows max equilibria of diameter 4 are impossible for n <= 7, so the
    minimum lies in {8, 9, 10}. The sunlet family is delicate: exactly
    the 3-, 5- and 7-sunlets are max equilibria (the 7-sunlet gives
    diameter 5 at n = 14); from the 9-sunlet on, a cycle vertex improves
    by swapping onto a chord, and even sunlets always fail. *)

(** {1 Section 4: the Theorem 12 torus (Figure 4)} *)

val torus : int -> Graph.t
(** [torus k] is the 45°-rotated 2D torus on [n = 2k²] vertices: pairs
    (i, j) with [0 <= i, j < 2k] and [i + j] even, each adjacent to
    (i±1, j±1). Requires [k >= 2]. Vertex-transitive, 4-regular,
    diameter [k], in max equilibrium (deletion-critical and
    insertion-stable). *)

val torus_vertex : int -> int * int -> int
(** [torus_vertex k (i, j)] is the vertex index of the lattice point
    (coordinates taken mod 2k; parity must be even after reduction). *)

val torus_coords : int -> int -> int * int
(** Inverse of {!torus_vertex}. *)

val torus_distance : int -> int -> int -> int
(** Closed-form distance in [torus k] between two vertex indices:
    [max(dc(i,i'), dc(j,j'))] with circular 1D distances mod 2k —
    the formula proved in Theorem 12. *)

(** {1 Section 4: d-dimensional generalization} *)

val torus_d : dim:int -> int -> Graph.t
(** [torus_d ~dim k]: vertices are the tuples of [\[0, 2k)^dim] with all
    coordinates of equal parity, n = 2k^dim; each vertex is adjacent to
    the 2^dim diagonal steps (all coordinates ±1). Diameter [k]
    (= Θ(n^{1/dim})), deletion-critical, and stable under insertion of up
    to [dim − 1] edges at one vertex. Requires [dim >= 1], [k >= 2]. *)

val torus_d_coords : dim:int -> int -> int -> int array
(** Tuple of a vertex index in [torus_d]. *)

val torus_d_distance : dim:int -> int -> int -> int -> int
(** Closed-form distance: max over coordinates of circular distance. *)

(** {1 Section 5: distance-uniformity non-example} *)

val conjecture14_nonexample : arms:int -> arm_len:int -> blob:int -> Graph.t
(** Re-export of {!Generators.path_with_blobs}: almost all {e pairs} lie
    at one distance, yet the graph has large diameter — showing
    Conjecture 14 genuinely needs per-vertex uniformity. *)
