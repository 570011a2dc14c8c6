(** The classic α-parameterized network creation game (Fabrikant et al.),
    built as the baseline the paper compares against.

    Each edge is {e owned} by one endpoint, which paid α for it. An
    agent's cost is α·(edges it owns) + Σ distances. Full Nash equilibrium
    (an agent re-chooses its whole edge set) is NP-hard to verify — the
    paper's motivation for swap equilibria — so, as in the follow-up
    literature, this module implements the standard local ("greedy") move
    set: buy one edge, sell one owned edge, or swap one owned edge. Every
    bound the paper proves for swap equilibria applies to the equilibria of
    this game for {e every} α, which experiment E11 checks empirically. *)

type t

type move =
  | Buy of { actor : int; target : int }
  | Sell of { actor : int; target : int }
  | Swap_owned of { actor : int; drop : int; add : int }

val pp_move : Format.formatter -> move -> unit

val move_to_string : move -> string

val create : alpha:float -> ?owner:(int -> int -> int) -> Graph.t -> t
(** Copies the graph. [owner u v] (called with [u < v]) assigns initial
    edge ownership and must return one endpoint; default: the smaller
    endpoint. The assignment is validated eagerly over every edge, so a
    bad owner fails here — naming the offending edge — rather than when
    the edge is first touched by a move.
    @raise Invalid_argument on α < 0 or an owner that is not an endpoint. *)

val alpha : t -> float

val graph : t -> Graph.t
(** The underlying network (do not mutate; use {!apply}). *)

val n : t -> int

val owner : t -> int -> int -> int
(** Owner of an existing edge. *)

val owned_degree : t -> int -> int
(** Number of edges the agent owns. *)

val agent_cost : t -> int -> float
(** α·owned + distance sum; [infinity] when disconnected. *)

val social_cost : t -> float
(** α·m + Σ_u Σ_v d(u,v). *)

val is_applicable : t -> move -> bool

val apply : t -> move -> unit

val undo : t -> move -> unit
(** Inverse of {!apply}. For [Sell]/[Swap_owned] restores the original
    ownership (the actor owned the edge by the applicability rules). *)

val delta : t -> move -> float
(** Actor's cost change; negative improves. *)

val best_move : t -> int -> (move * float) option
(** Most-improving local move of the agent, or [None]. *)

val first_improving_move : t -> int -> (move * float) option
(** First strictly improving move of the agent in enumeration order
    (buys ascending, then per owned neighbor a sell followed by
    owned-swaps ascending); the deterministic witness convention.
    {!Equilibrium.check_alpha_game} scans it agent by agent. *)

val actor : move -> int

type outcome = Converged | Cycled | Round_limit

type result = {
  state : t;
  outcome : outcome;
  rounds : int;
  moves : int;
}

val run_dynamics : ?max_rounds:int -> t -> result
(** Round-robin best-response on a copy; default cap 10_000 rounds. *)

val optimal_social_cost : alpha:float -> int -> float
(** Best social cost over the two canonical candidates — the star
    (optimal for α >= 2) and the complete graph (optimal for α <= 2) —
    which [Fabrikant et al.] prove exhausts the optimum:
    min(α(n−1) + 2(n−1) + 2(n−1)(n−2), α·n(n−1)/2 + n(n−1)). *)
