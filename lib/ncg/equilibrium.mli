(** Equilibrium predicates and witnesses.

    Everything here is the paper's polynomial-time check "simply try every
    possible edge swap and deletion" — each predicate comes with a
    witness-returning variant so tests and experiments can exhibit the
    violating move rather than just a boolean. All predicates regard
    disconnected graphs as non-equilibria (usage costs are infinite and a
    swap mending connectivity improves). *)

type verdict =
  | Equilibrium
  | Disconnected
  | Violation of Swap.move * int
      (** A move and its (negative, or for max-deletions non-positive)
          delta, for the basic swap games. *)
  | Alpha_violation of Alpha_game.move * float
      (** A Buy/Sell/Swap_owned move and its (negative) delta, for
          [Game.Alpha _]. *)

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Game-generic entry points}

    Callers that carry a {!Game.t} value (the censuses, the serving
    layer, the hunter, the CLI) go through these instead of
    pattern-matching the game at every call site. *)

val check : ?pool:Pool.t -> Game.t -> Graph.t -> verdict
(** [check game g] is {!check_sum} for [Sum] and {!check_max} for [Max];
    [?pool] as below: it matters only above 62 vertices. For [Alpha a]
    it is {!check_alpha_game} on [Alpha_game.create ~alpha:a g] (each
    edge owned by its smaller endpoint); [?pool] is ignored there. *)

val uses_pool : Game.t -> Graph.t -> bool
(** Whether {!check}'s [?pool] can matter: [Sum] or [Max] on more than
    62 vertices. A caller that builds a pool for one check needs none
    otherwise. *)

val check_alpha_game : Alpha_game.t -> verdict
(** The α-game check of a state under the edge ownership it carries —
    after {!Alpha_game.run_dynamics} that is no longer [create]'s
    default. The scan asks {!Alpha_game.first_improving_move} agent by
    agent (lowest agent, first move in enumeration order — the same
    witness convention as the basic games) and reports an
    {!Alpha_violation}. *)

val is_equilibrium : ?pool:Pool.t -> Game.t -> Graph.t -> bool

val violating_agents : Game.t -> Graph.t -> int
(** Number of agents holding at least one improving move, found with
    {!check}'s own per-agent scans, run sequentially: 0 iff equilibrium
    for connected graphs. For [Max] an agent also violates by holding a
    non-critical deletion; for [Alpha _] the moves are Buy/Sell/Swap_owned
    under default ownership. The local-search objective of {!Hunt}. *)

(** {1 Sum version} *)

val check_sum : ?pool:Pool.t -> Graph.t -> verdict
(** Sum equilibrium: no swap strictly decreases the actor's distance sum.
    Deletions never decrease a distance sum so they are not checked.
    Up to 62 vertices the scan runs sequentially over adjacency bit masks
    and [?pool] is unused. Above 62 vertices, with [?pool] the per-agent
    move scans run across domains, each on its own graph copy and
    {!Swap_eval} engine. Either way the verdict — including the exact
    witness move and delta — is identical to the sequential naive scan
    (lowest agent, first move in enumeration order). *)

val is_sum_equilibrium : ?pool:Pool.t -> Graph.t -> bool

(** {1 Max version} *)

val check_max : ?pool:Pool.t -> Graph.t -> verdict
(** Max equilibrium per the paper: no swap strictly decreases the actor's
    local diameter, {b and} every incident deletion strictly increases it.
    A reported [Violation (Delete _, d)] with [d <= 0] is a failure of the
    deletion-criticality half. [?pool] as in {!check_sum}: it matters
    only above 62 vertices. *)

val is_max_equilibrium : ?pool:Pool.t -> Graph.t -> bool

val is_deletion_critical : Graph.t -> bool
(** Deleting any edge strictly increases the local diameter of both
    endpoints. *)

val find_non_critical_deletion : Graph.t -> (Swap.move * int) option

val is_insertion_stable : Graph.t -> bool
(** Inserting any absent edge decreases the local diameter of neither
    endpoint. *)

val find_insertion_violation : Graph.t -> (int * int) option
(** An absent edge whose insertion strictly lowers some endpoint's local
    diameter. *)

val is_stable_under_insertions : Graph.t -> k:int -> bool
(** Exhaustive: for every vertex [v] and every set of at most [k] absent
    incident edges, inserting the whole set does not decrease [v]'s local
    diameter. This is the stability notion behind the d-dimensional torus
    of Section 4 (stable for [k = d - 1]). Cost grows as C(n, k); intended
    for small instances. *)

val is_stable_under_k_swaps :
  Usage_cost.version -> Graph.t -> k:int -> bool
(** Exhaustive multi-swap stability for either version: for every agent,
    every set of [j <= k] incident edges simultaneously re-pointed at [j]
    distinct fresh targets does not strictly decrease the agent's cost.
    [k = 1] coincides with the single-swap half of the equilibrium
    condition. Cost is C(deg, j)·C(n, j) per agent — intended for small
    instances (the Section 4 trade-off experiments). *)

val find_k_swap_violation :
  Usage_cost.version -> Graph.t -> k:int -> (int * (int * int) list) option
(** Witness for the failure of {!is_stable_under_k_swaps}: the agent and
    the (drop, add) pairing that improves it. *)

val k_change_stable_sampled :
  Prng.t -> Graph.t -> k:int -> trials:int -> bool
(** Randomized check of the stronger "change any k incident edges" notion:
    samples [trials] random (drop-set, add-set) pairs per vertex and
    verifies none decreases the vertex's local diameter. [false] is a
    disproof; [true] is only evidence. *)

(** {1 Structural lemmas} *)

val eccentricity_spread : Graph.t -> int option
(** Max minus min local diameter ([None] when disconnected) — Lemma 2
    asserts this is at most 1 in max equilibrium. *)

val lemma3_holds : Graph.t -> bool
(** For every cut vertex [v], at most one component of [G − v] contains a
    vertex at distance more than 1 from [v]. *)
