(** E3 / E4 — diameter lower bounds for the sum version (Section 3.1,
    Figure 3) and the exhaustive small-graph census. *)

val e3_theorem5 : unit -> unit
(** Theorem 5 audit: the literal Figure 3 graph (and its matching
    variants) against the checker, the reproduction finding that it
    admits an improving swap, and the verified diameter-3 witnesses
    (Petersen, Petersen + pendant) plus the polarity-graph family. *)

val e4_graph_census : ?max_n:int -> ?games:Game.t list -> unit -> unit
(** Exhaustive classification of all connected graphs per n (default up
    to 6), on the path {!Census.game_census} picks: equilibrium counts up to
    isomorphism and the diameter histogram. Shows the diameter-3 lower
    bound is not attainable for sum below n = 8 and is attainable for max
    at n = 6. *)
