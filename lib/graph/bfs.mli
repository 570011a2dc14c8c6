(** Breadth-first search with reusable workspaces.

    Swap dynamics evaluates thousands of candidate moves per round, each with
    a fresh BFS, so this module is written to be allocation-free after the
    workspace is created: the queue and distance arrays are reused and the
    distance array carries a generation stamp instead of being cleared. *)

val unreachable : int
(** Sentinel distance for vertices not reached ([max_int / 4], safely
    addable without overflow). *)

type workspace
(** Scratch space for graphs with at most the creation-time vertex count. *)

val create_workspace : int -> workspace
(** [create_workspace n] allocates scratch for graphs of up to [n]
    vertices. *)

val run : workspace -> Graph.t -> int -> unit
(** [run ws g src] computes single-source distances from [src] into the
    workspace. The graph's vertex count must not exceed the workspace
    capacity. *)

val dist : workspace -> int -> int
(** Distance of a vertex after {!run}; {!unreachable} if not reached. *)

val reached : workspace -> int
(** Number of vertices reached by the last {!run} (including the source). *)

val ecc : workspace -> int
(** Largest finite distance from the last {!run}. *)

val distances : Graph.t -> int -> int array
(** One-shot convenience: fresh distance array from a fresh workspace, with
    {!unreachable} marking unreached vertices. *)

val distances_into : workspace -> Graph.t -> int -> int array -> unit
(** [distances_into ws g src out] runs BFS and writes all [n] distances into
    [out] (which must have length >= n). *)

val all_pairs : Graph.t -> int array array
(** [all_pairs g] is the n×n distance matrix via n BFS runs. *)

type reachability = {
  sum : int;  (** sum of distances to all other vertices *)
  ecc : int;  (** eccentricity *)
  reached : int;  (** vertices reached, including the source *)
}

val reach : workspace -> Graph.t -> int -> reachability
(** Single call combining {!run} with the three summaries. *)

val connected_from : workspace -> Graph.t -> int -> bool
(** [connected_from ws g src] is [true] iff BFS from [src] reaches all
    vertices. For a graph known to have no isolated context this is the
    standard connectivity test. *)
