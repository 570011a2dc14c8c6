(** Agent usage costs for the two basic network creation games.

    The paper studies two cost functions for an agent [v]:
    - {b sum}: the total distance from [v] to every other vertex;
    - {b max}: the "local diameter" of [v], i.e. its eccentricity.

    Disconnection is encoded by {!infinite}, a sentinel large enough that
    any swap leading to disconnection can never look improving, yet small
    enough that differences never overflow. *)

type version = Sum | Max

val infinite : int
(** Cost of a vertex that does not reach the whole graph. *)

val is_infinite : int -> bool

val vertex_cost : Bfs.workspace -> version -> Graph.t -> int -> int
(** Usage cost of one agent under the given version; {!infinite} when the
    agent does not reach all vertices. *)

val social_cost : version -> Graph.t -> int
(** Sum version: Σ_v vertex_cost(v) (twice the Wiener index). Max version:
    the diameter. {!infinite} when disconnected. *)

val social_cost_lower_bound : version -> n:int -> m:int -> int
(** Best possible social cost of any connected graph with [n] vertices and
    [m] edges: the denominator of price-of-anarchy ratios.
    Sum: [2m + 2·(n(n-1) - 2m)] — adjacent ordered pairs cost 1, all others
    at least 2 (exact when a diameter-2 graph with m edges exists).
    Max: 1 if the graph can be complete ([m = n(n-1)/2]), else 2. *)
