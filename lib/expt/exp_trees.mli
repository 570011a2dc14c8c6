(** E1 / E2 — the tree theorems (Section 2, Figures 1 and 2). *)

val e1_sum_tree_census : ?max_n:int -> unit -> unit
(** Theorem 1: exhaustive census of labeled trees per n (default up to 8);
    every sum equilibrium must be a star, every non-star gets a verified
    improving witness. *)

val e2_max_tree_census : ?max_n:int -> unit -> unit
(** Theorem 4: same for the max version; equilibria are exactly stars and
    double stars with both arms >= 2, diameter <= 3 with 3 attained. *)

val e1b_trees_at_scale : ?sizes:int list -> unit -> unit
(** Theorems 1 and 4 at large n: round-robin best-response dynamics
    ({!Dynamics.converge_sum} / {!Dynamics.converge_max}) from random trees
    and paths, sizes in the hundreds. Every sum run must end in a star,
    every max run in a star or double star (diameter <= 3). *)

val e2b_double_star_family : ?max_arm:int -> unit -> unit
(** The Figure 2 boundary: double_star(a, b) is a max equilibrium iff
    min(a, b) >= 2, swept exhaustively over arm sizes. *)
