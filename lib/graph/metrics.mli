(** Global distance metrics.

    The paper's central quantity is the diameter of equilibrium graphs; this
    module computes it together with the related usage-cost aggregates
    (Wiener index, average distance) and the girth used in the Theorem 5
    analysis. Functions returning distances yield [None] on disconnected
    graphs unless documented otherwise. *)

val diameter : Graph.t -> int option
(** Largest eccentricity; [None] if disconnected. [Some 0] for n <= 1. *)

val radius : Graph.t -> int option
(** Smallest eccentricity. *)

val eccentricities : Graph.t -> int array option
(** Per-vertex eccentricities; [None] if disconnected. *)

val wiener_index : Graph.t -> int option
(** Sum of d(u,v) over unordered pairs. The sum-version social cost is twice
    this value. *)

val average_distance : Graph.t -> float option
(** Mean of d(u,v) over unordered pairs; [None] for n <= 1 or
    disconnected. *)

val girth : Graph.t -> int option
(** Length of a shortest cycle; [None] for forests. O(n·m). *)

val distance_histogram : Graph.t -> int -> int array
(** [distance_histogram g v] has, at index [d], the number of vertices at
    distance exactly [d] from [v] (the sphere sizes S_d(v) of Theorem 9).
    Length is [ecc + 1]; unreached vertices are not counted. *)

val ball_sizes : Graph.t -> int -> int array
(** Cumulative spheres: index [d] holds |B_d(v)|. *)

val local_diameter : Graph.t -> int -> int option
(** The paper's "local diameter" of a vertex: its eccentricity. [None] if
    the vertex does not reach the whole graph. *)

val sum_distance : Graph.t -> int -> int option
(** Sum-version usage cost of a vertex; [None] if disconnected. *)

val triangle_count : Graph.t -> int
(** Number of triangles (3-cliques). O(Σ deg²). *)

val local_clustering : Graph.t -> int -> float
(** Fraction of the vertex's neighbor pairs that are adjacent; 0.0 for
    degree < 2. *)

val average_clustering : Graph.t -> float
(** Mean of {!local_clustering} over all vertices (0.0 for n = 0). *)

val global_clustering : Graph.t -> float
(** Transitivity: 3·triangles / #(paths of length 2); 0.0 when there are
    no length-2 paths. *)

val degree_assortativity : Graph.t -> float option
(** Pearson correlation of endpoint degrees over edges (Newman); [None]
    when degenerate (no edges, or all degrees equal). Negative for stars
    and other hub-dominated equilibria. *)

val is_distance_formula :
  Graph.t -> (int -> int -> int) -> bool
(** [is_distance_formula g f] checks [f u v = d(u,v)] for all pairs —
    used to validate closed-form distance oracles such as the Theorem 12
    torus formula. O(n·m + n²). *)
