(** Exhaustive classification of small equilibria.

    The paper's tree theorems (1 and 4) and the "all known sum equilibria
    have diameter <= 3" observation are universally quantified statements
    over finite ranges; this module checks them against the {e entire}
    universe of labeled trees / connected graphs in the tractable range,
    producing the E1/E2/E4 tables.

    Every census runs through one pipeline: a {!shard} descriptor names a
    kind, a game, [n] and a rank range; {!run_shard} classifies it
    (optionally across a {!Pool.t}); {!merge_result} folds adjacent
    pieces back together. {!tree_census}, {!graph_census} and
    {!orderly_census} are projections of the full shard. *)

type tree_census = {
  n : int;
  total : int;  (** labeled trees examined: n^(n-2) *)
  equilibria : int;  (** labeled count *)
  stars : int;  (** labeled stars among them *)
  double_stars : int;  (** labeled double stars among them (max only) *)
  max_eq_diameter : int;  (** largest equilibrium diameter seen; 0 if none *)
  witnesses_verified : int;
      (** non-equilibrium trees whose proof-witness swap was checked to
          strictly improve *)
}

type graph_census = {
  n : int;
  connected : int;  (** connected labeled graphs examined *)
  equilibria_labeled : int;
  equilibria_iso : Graph.t list;  (** one representative per iso class *)
  diameter_histogram : (int * int) list;
      (** equilibrium diameter -> iso-class count *)
  max_diameter : int;
}

(** {1 Shards}

    One descriptor for "a contiguous piece of a census" — the unit of
    work shared by the in-process census, the serving layer's
    [census-shard] method, the distributed dispatcher ({!Dispatch} in
    [lib/serve]) and the journal format. Ranks are Prüfer ranks for
    {!Trees}, edge-subset masks for {!Graphs} and generation-tree root
    indices for {!Orderly}; disjoint adjacent shards merged in ascending
    rank order reproduce the full census exactly (for {!Orderly}, any
    adjacent-merge order does). *)

type kind =
  | Trees  (** all labeled trees, by Prüfer rank *)
  | Graphs
      (** all connected labeled graphs, by edge-subset mask (the
          rank-range census); the only graph census for the α-game *)
  | Orderly
      (** one canonical representative per isomorphism class, by
          orderly generation; basic games only. Its record is
          byte-identical to the {!Graphs} one wherever both run *)

type shard = {
  kind : kind;
  game : Game.t;
  n : int;
  lo : int;  (** inclusive start rank *)
  hi : int;  (** exclusive end rank *)
}

type result =
  | Tree_result of tree_census
  | Graph_result of graph_census
  | Orderly_result of graph_census
      (** Same record as {!Graph_result} — the orderly path computes the
          identical census — but a distinct constructor so merges can
          never mix the two shard geometries. *)

val kind_name : kind -> string
(** The wire name: ["trees"], ["graphs"] or ["orderly"]. *)

val kind_of_name : string -> kind option

val result_kind : result -> kind
(** The kind of shard that produces this result. *)

val max_shard_vertices : kind -> int
(** {!Enumerate.max_tree_vertices} (10), {!Enumerate.max_graph_vertices}
    (8) or {!Orderly.max_vertices} (11). *)

val shard_space : kind -> int -> int
(** Size of the full rank space on [n] vertices: [n^(n-2)] labeled trees,
    [2^(n(n-1)/2)] edge masks or {!Orderly.space} roots. [n] must be
    within {!max_shard_vertices}. *)

val full_shard : kind -> Game.t -> int -> shard
(** The whole census as a single shard: [lo = 0], [hi = shard_space].
    @raise Invalid_argument when [n] is out of range. *)

val validate_shard : shard -> (unit, string) Stdlib.result
(** Total bounds check ([n] within the kind's cap, [0 <= lo <= hi <=]
    {!shard_space}), plus the game/kind compatibility rule ({!Orderly}
    requires a basic game: the α-game's verdict depends on the labeling
    through edge ownership, so orbit-stabilizer counting would be
    unsound); the returned message is suitable for a structured
    [invalid_params] reply. *)

val run_shard : ?atlas:Atlas.t -> ?pool:Pool.t -> shard -> result
(** Classify every tree/graph of the shard's rank range. For trees every
    non-equilibrium receives a verified witness: the Theorem 1 swap for
    sum; for max, the Lemma 2 swap on diameter >= 4 and the generic
    checker below that; the generic checker's improving move for the
    α-game. For
    graphs the representatives are the first of each class in mask
    order. With [?pool] (more than one job) the range is cut into
    chunks classified across domains and merged with {!merge_result} in
    ascending rank order; the result equals the sequential one. With
    [?atlas] the per-labeled-graph equilibrium verdict (key
    [eq:<game>:<graph6>], value ["1"]/["0"]) is consulted before the
    scan and populated after a miss; verdicts are identical either way,
    so the result is byte-for-byte the same with the atlas on or off.
    Orderly shards key the orderly copies' graph6, so they populate
    different entries than rank-range runs. Tree shards ignore the atlas
    (the closed-form classification is cheaper than a probe).
    @raise Invalid_argument when {!validate_shard} fails. *)

val split : shard -> parts:int -> shard list
(** [split s ~parts] cuts [s] into at most [parts] contiguous,
    near-equal, disjoint shards covering exactly [[s.lo, s.hi)], in
    ascending rank order (fewer when the range is narrower than [parts];
    an empty range stays a single empty shard). Deterministic, so a
    resumed run with the same [parts] reproduces the same boundaries.
    @raise Invalid_argument when [parts < 1]. *)

val merge_result : result -> result -> result
(** Tree counts add and [max_eq_diameter] maxes. Rank-range graph
    representatives are re-deduplicated by canonical form with the
    lower-mask shard winning; orderly representatives (class-disjoint
    across shards) merge by mask key. The first argument must be the
    lower-rank shard.
    @raise Invalid_argument on mixed kinds or different [n]. *)

(** {1 Whole censuses} *)

val tree_census : ?pool:Pool.t -> Game.t -> int -> tree_census
(** {!run_shard} of the full {!Trees} shard
    (n <= {!Enumerate.max_tree_vertices}). *)

val graph_census :
  ?atlas:Atlas.t -> ?pool:Pool.t -> Game.t -> int -> graph_census
(** {!run_shard} of the full {!Graphs} shard
    (n <= {!Enumerate.max_graph_vertices}; n = 7 takes minutes
    sequentially). *)

val orderly_census :
  ?atlas:Atlas.t -> ?pool:Pool.t -> Game.t -> int -> graph_census
(** {!run_shard} of the full {!Orderly} shard: one {!Orderly.iter} visit
    per isomorphism class, labeled counts recovered by orbit-stabilizer
    ([n!/|Aut|] copies per class) and equilibrium representatives
    reported as minimum-mask labelings in ascending mask order —
    byte-identical to {!graph_census} wherever both can run, but reaching
    [n <=] {!Orderly.max_vertices} because the walk is over classes, not
    the [2^(n(n-1)/2)] mask space.
    @raise Invalid_argument for a non-basic game. *)
