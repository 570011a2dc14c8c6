(** Canonical forms, isomorphism, automorphisms — for small graphs.

    The census deduplicates equilibria up to isomorphism and checks
    structural claims like "the Theorem 12 torus is vertex-transitive". The
    algorithm is classical: iterated color refinement (1-WL) to split
    vertices into classes, then one backtracking search over
    class-respecting vertex orders for the lexicographically minimal
    adjacency bitstring, pruned by the automorphisms it finds on the way
    (McKay's rule). Symmetry is therefore cheap: a 16-vertex star or K16
    takes about 150 search nodes. The slow inputs are regular graphs whose
    refinement leaves a single color class, since colors are refined only
    once, at the root: Q4 takes about 10^8 nodes (15–20 s on a 2-core
    VM), the 4×4 torus about 3·10^7. Functions raise [Invalid_argument]
    past [max_search_vertices] unless documented otherwise. *)

val max_search_vertices : int
(** Hard cap (16) on the search entry points: a vertex set fits one int
    mask. *)

val refine : Graph.t -> int array
(** Stable coloring from iterated neighborhood refinement, with color ids
    dense in [\[0, k)]. Isomorphic graphs get identical color histograms.
    The order of the ids is part of the contract:
    - the initial classes are the degrees, ascending;
    - each round ranks the vertices by (color, ascending list of
      neighbour colors), compared lexicographically, a list that is a
      prefix of another first;
    - it stops when a round leaves the class count unchanged.

    {!cert}'s candidate order, and so [form], follow this order. So do
    both atlas key spaces (serve's keys are [form] bytes, the census's
    the graph6 of {!Orderly}'s generated copies) and the orderly
    census's shard rank space; [test_orderly]'s emission digests pin all
    of them. Since the first classes are the degrees and a round only
    splits classes, a vertex of higher degree always has a higher color,
    and colors (so degrees) never decrease along {!cert}'s [perm].
    {!Orderly}'s degree and color tests depend on this, and [test_canon]
    checks it.
    Runs on {!Graph.masks} rows, one int of neighbour bits per vertex,
    so it takes graphs of at most 62 vertices. Round 0 ranks degrees in
    O(n); a later round insertion-sorts each class, comparing two of its
    vertices by their neighbour counts per color class.
    @raise Invalid_argument past 62 vertices. *)

val refine_masks : int array -> int array
(** [refine] on adjacency rows as {!Graph.masks} gives them ([rows.(v)]
    has bit [w] set iff [vw] is an edge, at most 62 rows); [refine g] is
    [refine_masks (Graph.masks g)]. *)

val canonical_form : Graph.t -> string
(** [(cert g).form]: equal iff the graphs are isomorphic (for graphs
    within the search cap). *)

val isomorphic : Graph.t -> Graph.t -> bool
(** Cheap invariants first (n, m, degree sequence, refined color histogram),
    then certificate comparison. *)

(** {1 Certificate}

    Everything the search learns about a graph: the canonical string, a
    labeling that achieves it, the automorphism group order (for
    orbit-stabilizer labeled counting), the orbit of each canonical
    position (for the orderly census's canonical-deletion test) and a
    generating set of the group (for its orbit-minimum subset test). *)

type cert = {
  form : string;  (** equals {!canonical_form}. *)
  perm : int array;
      (** the first optimal labeling in candidate order: [perm.(p)] is the
          vertex placed at canonical position [p]. *)
  aut_count : int;
      (** [|Aut(g)|], by orbit–stabilizer along [perm]: the product over
          [d] of the orbit size of [perm.(d)] under the automorphisms
          fixing [perm.(0..d-1)]. *)
  position_vertices : int array;
      (** [position_vertices.(p)] is the bitmask of the automorphism orbit
          of [perm.(p)] — the vertices some optimal labeling places at
          position [p]. *)
  generators : int array list;
      (** automorphisms generating [Aut(g)] ([σ.(v)] is the image of [v]),
          the ones the search found at tying leaves; empty when the group
          is trivial. *)
}

val cert : Graph.t -> cert
(** The one search; every other function here reads its result. Bumps
    the [canon.nodes] telemetry counter once per search node. *)

val cert_masks : int array -> int array -> cert
(** [cert_masks rows colors] is the search on adjacency rows, where
    [colors] must be [refine_masks rows]; [cert g] is that on
    {!Graph.masks}[ g]. A caller that has the rows and needs the colors
    anyway (the orderly census's color test) pays one refinement. *)

val automorphism_count : Graph.t -> int
(** [(cert g).aut_count]. *)

val orbits : Graph.t -> int array
(** [orbits g] labels each vertex with its automorphism-orbit index,
    orbits numbered by their least vertex. *)

val is_vertex_transitive : Graph.t -> bool
(** Single orbit. Note: Cayley graphs are vertex-transitive by construction;
    use this only to spot-check small instances. *)
