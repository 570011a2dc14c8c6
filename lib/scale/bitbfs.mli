(** Bit-parallel multi-source BFS over {!Flexcsr}.

    One machine word per vertex carries the frontier membership of up to
    {!max_sources} sources at once, so a batch of BFS waves costs one pass
    over the touched adjacency per wave instead of one pass per source —
    the kernel behind sampled eccentricity/mean-distance estimates and the
    batched swap-candidate lower bounds of the scale engine.

    Words are native [int]s (63 usable bits on 64-bit platforms): OCaml
    [int64 array]s box every element, which would cost an indirection per
    word per wave, so the batch width is 63, not 64.

    Results are exact BFS distances (per source), delivered through a
    [visit] callback invoked once per (vertex, wave) pair with the set of
    sources that first reach the vertex at that wave. Within a wave the
    kernel visits vertices in frontier-queue order (the order in which the
    previous wave's rows first reached them), a deterministic function of
    the graph and the source array.

    Telemetry (under [scale.bitbfs.*]): runs and frontier words processed. *)

val max_sources : int
(** 63. *)

type scratch
(** Reusable per-run workspace (a few O(n) arrays); one scratch per
    engine, not domain-shareable. *)

val create_scratch : int -> scratch
(** [create_scratch n] sizes the workspace for graphs with up to [n]
    vertices. *)

val run :
  scratch ->
  Flexcsr.t ->
  sources:int array ->
  visit:(int -> int -> int -> unit) ->
  unit
(** [run sc t ~sources ~visit] performs one batched BFS from at most
    {!max_sources} sources. [visit u wave bits] fires once per vertex [u]
    per wave at which at least one new source reaches it; bit [i] of
    [bits] corresponds to [sources.(i)] (sources themselves fire at wave
    0).
    @raise Invalid_argument on 0 or more than {!max_sources} sources. *)

val run_until :
  scratch ->
  Flexcsr.t ->
  sources:int array ->
  visit:(int -> int -> int -> bool) ->
  unit
(** {!run} whose [visit u wave bits] also says whether to expand [u]: on
    [false], the bits that reached [u] at this wave go no further through
    [u]. The one kernel; {!run} is [run_until] with a visit that returns
    [true].

    Pruning contract: a source's bit reaches [u] at its true distance
    exactly when some shortest path from the source to [u] has [visit]
    return [true] at each vertex before [u], at that vertex's own
    distance. Otherwise it reaches [u] later than its distance, or never.
    So a [visit] that returns [wave < r] gives {!run}'s triples with
    [wave <= r]. The scale engine's horizon (DESIGN.md "Large-n
    dynamics") prunes a bit only where it could lower no bound further
    along.
    Telemetry counts expanded frontier words only. *)

val iter_bits : (int -> unit) -> int -> unit
(** [iter_bits f bits] calls [f] on each set bit index, lowest first. *)

type stats = { ecc : int; sum : int; reached : int }

val sample_stats : scratch -> Flexcsr.t -> sources:int array -> stats array
(** Per-source eccentricity, sum of finite distances, and reach count.
    Any number of sources — batches of {!max_sources} internally. *)

val distances : scratch -> Flexcsr.t -> sources:int array -> int array array
(** Full distance rows (−1 for unreached), one per source: the test
    oracle hook. Any number of sources. *)
