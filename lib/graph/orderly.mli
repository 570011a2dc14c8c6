(** Orderly (canonical-construction-path) enumeration of connected graphs.

    McKay-style generation: each canonically generated graph on [k]
    vertices is extended by one fresh vertex attached to a nonempty
    neighbor subset, one subset per parent-automorphism orbit, and the
    child is kept only when undoing the augmentation is the canonical
    deletion (the highest non-cut canonical position, checked against
    {!Canon.cert}). Every isomorphism class of connected graphs is
    therefore emitted {e exactly once}, with no post-hoc dedup table —
    the wall that capped the rank-range census at the 2^(n(n-1)/2) mask
    space. A child in which some non-cut vertex has a higher degree than
    the fresh one fails that test, so the degree test rejects it before
    any refinement; one in which some non-cut vertex has a higher
    {!Canon.refine} color fails it too, so the color test rejects it
    after the refinement and before the search. Emission order is a
    deterministic DFS of the generation tree, so shards over root
    subtrees compose reproducibly. *)

val max_vertices : int
(** 11 — the last level where labeled counts via n!/|Aut| summation
    (A001187) stay inside 63-bit integers. *)

val space : int -> int
(** Rank space of the orderly census on [n] vertices: the number of
    generation-tree roots, the connected classes (OEIS A001349) on
    [min n 6] vertices. *)

val iter : ?lo:int -> ?hi:int -> int -> (Graph.t -> Canon.cert -> unit) -> unit
(** [iter n f] calls [f] exactly once per isomorphism class of connected
    graphs on [n] vertices, passing the generated labeled copy and its
    certificate (canonical form, |Aut|, optimal labeling). With
    [?lo]/[?hi], only the subtrees of roots [lo .. hi - 1] (in emission
    order at level [min n 6]) are explored; disjoint adjacent ranges
    concatenated in ascending order reproduce the full enumeration —
    the census sharding primitive. @raise Invalid_argument outside
    [1 <= n <= max_vertices] or [0 <= lo <= hi <= space n]. *)

val count : ?lo:int -> ?hi:int -> int -> int
(** Number of classes emitted by {!iter} over the same range. *)

val min_mask_graph : Graph.t -> Graph.t
(** The labeled copy with the minimum column-major edge-mask integer —
    exactly the first copy the rank-range census encounters, which makes
    orderly census output byte-identical to the legacy path. An exact
    branch and bound over positions, highest first: it branches only on
    candidates whose mask column ties the minimum, one per twin class,
    instead of trying all n! relabelings.
    @raise Invalid_argument past 9 vertices. *)

val mask_of_graph : Graph.t -> int
(** Column-major edge-subset mask of a labeled graph (the rank-range
    census's enumeration rank); the deterministic sort key for orderly
    census representatives. Requires [n <= 11] (55 bits). *)

val representative : Graph.t -> Canon.cert -> Graph.t
(** {!min_mask_graph} up to 9 vertices, else the canonical copy rebuilt
    from [cert.form], so n = 10–11 census output keeps that labeling —
    deterministic and label-invariant either way. *)

val canonical_copy : Canon.cert -> Graph.t
(** The graph whose adjacency equals the certificate's canonical
    bitstring (vertices = canonical positions). *)
