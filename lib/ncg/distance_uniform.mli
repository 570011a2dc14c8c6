(** Distance uniformity (Section 5).

    A graph is ε-distance-uniform when some radius [r] has every vertex
    seeing at least (1−ε)n vertices at distance exactly [r]; the almost-
    uniform variant allows distances [r] or [r+1]. Theorem 13 turns
    high-diameter sum equilibria into high-diameter distance-uniform graphs
    via graph powers; Conjecture 14 asks whether such graphs can have more
    than polylogarithmic diameter at all. *)

type profile = {
  n : int;
  r : int;  (** the best radius *)
  epsilon : float;  (** the smallest ε achieved at [r] *)
}

val best_uniform : Graph.t -> profile
(** Smallest ε over all radii for exact distance-uniformity. O(n·m + n·d).
    For every [r], ε(r) = max_v (1 − S_r(v)/n); the profile minimizes over
    [r >= 1]. Requires n >= 2 and connectivity. *)

val best_almost_uniform : Graph.t -> profile
(** Same with spheres S_r ∪ S_{r+1}. *)

val epsilon_at : Graph.t -> r:int -> float
(** ε for one radius (exact variant). *)

val is_distance_uniform : Graph.t -> epsilon:float -> bool
(** Some radius achieves ε at most the bound. *)

val pairwise_modal_fraction : Graph.t -> int * float
(** The modal pairwise distance and the fraction of ordered pairs at it —
    the weaker "almost all pairs" notion that the Section 5 non-example
    shows is insufficient for Conjecture 14. *)

(** {1 Theorem 13 pipeline} *)

type power_report = {
  x : int;  (** the power taken *)
  diameter : int;  (** diameter of G^x *)
  almost : profile;  (** almost-uniformity of G^x *)
  exact : profile;  (** exact uniformity of G^x *)
}

val power_report : Graph.t -> x:int -> power_report

val theorem13_power : Graph.t -> int
(** The paper's choice of power, [x = 2p·lg n + 1] with the proof's
    [p = 4/α] instantiated at α = 1/2 — i.e. [x = 16·lg n + 1], capped at
    the diameter (taking a larger power than the diameter is vacuous). *)

val skew_triple_fraction :
  ?rng:Prng.t -> ?samples:int -> Graph.t -> p:float -> float
(** Fraction of ordered vertex triples (a, b, c) with
    [d(a,c) > p·lg n + d(a,b)] — the quantity bounded in the first claim of
    Theorem 13's proof. Exact when n³ is below the sample budget, otherwise
    Monte Carlo with the given sample count (default 200_000). *)
