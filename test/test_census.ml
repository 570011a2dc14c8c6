open Test_helpers

let test_tree_census_sum_small () =
  for n = 3 to 7 do
    let c = Census.tree_census Game.Sum n in
    check_int "total = n^(n-2)" (Enumerate.count_trees n) c.Census.total;
    check_int "equilibria are the n stars" n c.Census.equilibria;
    check_int "all stars" n c.Census.stars;
    check_int "diameter 2" 2 c.Census.max_eq_diameter;
    check_int "every non-star got a witness" (c.Census.total - n) c.Census.witnesses_verified
  done

let test_tree_census_max_small () =
  for n = 3 to 7 do
    let c = Census.tree_census Game.Max n in
    check_int "stars counted" n c.Census.stars;
    check_int "eq = stars + double stars"
      (c.Census.stars + c.Census.double_stars)
      c.Census.equilibria;
    check_true "diameter <= 3" (c.Census.max_eq_diameter <= 3)
  done;
  (* diameter 3 first attained at n = 6 (double_star 2 2) *)
  check_int "n=5 no double stars" 0 (Census.tree_census Game.Max 5).Census.double_stars;
  check_int "n=6 diameter 3" 3 (Census.tree_census Game.Max 6).Census.max_eq_diameter

let test_double_star_count_n6 () =
  (* labeled double stars with arms (2,2) on 6 vertices: choose the
     ordered root pair (30) then 3 of 4 remaining leaves for root a...
     combinatorially C(6,2)*C(4,2)/1 * ... = 15 unordered root pairs x
     C(4,2)=6 leaf splits / 2 for arm symmetry... the census says 90 *)
  check_int "n=6 double stars" 90 (Census.tree_census Game.Max 6).Census.double_stars

(* Differential cross-check of the census against an independent brute
   force: walk the whole Prüfer rank range with [trees_in] (no sharding,
   no pool) and run the generic equilibrium checker on every tree. By
   Theorem 1 the sum equilibria must be exactly the stars, and the tallies
   must agree with [tree_census]'s shortcut-based classification. *)
let brute_force_sum_census n =
  let total = ref 0 and equilibria = ref 0 and stars = ref 0 in
  Enumerate.trees_in n ~lo:0 ~hi:(Enumerate.count_trees n) (fun g ->
      Stdlib.incr total;
      let eq = Equilibrium.is_sum_equilibrium g in
      let star = Tree_eq.is_star g in
      check_bool "sum equilibrium iff star (Theorem 1)" star eq;
      if eq then Stdlib.incr equilibria;
      if star then Stdlib.incr stars);
  (!total, !equilibria, !stars)

let differential_sum_census n =
  let total, equilibria, stars = brute_force_sum_census n in
  let c = Census.tree_census Game.Sum n in
  check_int "totals agree" total c.Census.total;
  check_int "equilibria agree" equilibria c.Census.equilibria;
  check_int "stars agree" stars c.Census.stars

let test_differential_sum_census_small () =
  for n = 2 to 6 do
    differential_sum_census n
  done

let test_differential_sum_census_n7 () = differential_sum_census 7

let test_graph_census_sum () =
  let c = Census.graph_census Game.Sum 4 in
  check_int "connected count" 38 c.Census.connected;
  check_int "labeled equilibria" 26 c.Census.equilibria_labeled;
  check_int "iso classes" 5 (List.length c.Census.equilibria_iso);
  check_int "max diameter" 2 c.Census.max_diameter;
  List.iter
    (fun g -> check_true "each representative verified" (Equilibrium.is_sum_equilibrium g))
    c.Census.equilibria_iso

let test_graph_census_max () =
  let c = Census.graph_census Game.Max 5 in
  check_int "iso classes" 4 (List.length c.Census.equilibria_iso);
  List.iter
    (fun g -> check_true "verified" (Equilibrium.is_max_equilibrium g))
    c.Census.equilibria_iso

let test_graph_census_max_diameter3_at_6 () =
  let c = Census.graph_census Game.Max 6 in
  check_int "diameter 3 attained" 3 c.Census.max_diameter

let test_histogram_consistent () =
  let c = Census.graph_census Game.Sum 5 in
  let total = List.fold_left (fun acc (_, k) -> acc + k) 0 c.Census.diameter_histogram in
  check_int "histogram covers all classes" (List.length c.Census.equilibria_iso) total

(* --- unified shard API ----------------------------------------------------- *)

let test_split_properties () =
  List.iter
    (fun (kind, n) ->
      let full = Census.full_shard kind Game.Sum n in
      List.iter
        (fun parts ->
          let pieces = Census.split full ~parts in
          check_true "at most parts pieces" (List.length pieces <= parts);
          (* adjacent, ascending, covering exactly [lo, hi) *)
          let cursor = ref full.Census.lo in
          List.iter
            (fun s ->
              check_int "adjacent to predecessor" !cursor s.Census.lo;
              check_true "non-empty piece" (s.Census.hi > s.Census.lo);
              cursor := s.Census.hi)
            pieces;
          check_int "covers the range" full.Census.hi !cursor;
          (* deterministic: a resumed run reproduces the boundaries *)
          check_true "split is deterministic"
            (pieces = Census.split full ~parts))
        [ 1; 2; 3; 7; 16; 1000 ])
    [ (Census.Trees, 5); (Census.Graphs, 4); (Census.Orderly, 6) ];
  (* an empty range stays a single empty shard *)
  let empty = { (Census.full_shard Census.Trees Game.Sum 5) with Census.lo = 9; hi = 9 } in
  (match Census.split empty ~parts:4 with
  | [ s ] -> check_true "empty shard preserved" (s.Census.lo = 9 && s.Census.hi = 9)
  | pieces -> check_int "one piece" 1 (List.length pieces))

let render_result r = Jsonx.to_string (Rpc.census_result r)

(* A pooled run over a sub-range must chunk relative to the shard's own
   [lo], not rank 0, and merge back to exactly the sequential result. *)
let test_run_shard_pooled_subrange () =
  Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun (kind, game, n, lo, hi) ->
          let s = { (Census.full_shard kind game n) with Census.lo; hi } in
          let seq = Census.run_shard s in
          check_true "result_kind names the shard kind"
            (Census.result_kind seq = kind);
          check_true
            (Census.kind_name kind ^ ": pooled sub-range = sequential")
            (String.equal (render_result seq)
               (render_result (Census.run_shard ~pool s))))
        [
          (Census.Trees, Game.Max, 5, 10, 90);
          (Census.Graphs, Game.Sum, 4, 8, 40);
          (Census.Orderly, Game.Sum, 5, 2, 14);
        ])

(* The orderly census record must equal the rank-range one field for
   field — counts, histogram, and the representative list in the same
   (first-seen mask) order — so the CLI, which picks orderly for the
   basic games, prints the bytes the rank-range sweep would. The orderly
   result is relabeled as a graph result so the wire kind field (the
   one intended difference) drops out of the comparison. *)
let orderly_identity game n =
  let render kind =
    match Census.run_shard (Census.full_shard kind game n) with
    | Census.Orderly_result c -> render_result (Census.Graph_result c)
    | r -> render_result r
  in
  Alcotest.(check string)
    (Printf.sprintf "%s n=%d: orderly = rank-range" (Game.to_string game) n)
    (render Census.Graphs) (render Census.Orderly)

let test_orderly_identity_small () =
  List.iter
    (fun game -> List.iter (orderly_identity game) [ 3; 4; 5 ])
    [ Game.Sum; Game.Max ]

let test_orderly_identity_n6 () =
  orderly_identity Game.Sum 6;
  orderly_identity Game.Max 6

let test_merge_result_rejects_mixed () =
  let t = Census.run_shard (Census.full_shard Census.Trees Game.Sum 4) in
  let g = Census.run_shard (Census.full_shard Census.Graphs Game.Sum 4) in
  Alcotest.check_raises "mixed kinds rejected"
    (Invalid_argument "Census.merge_result: mixed census kinds") (fun () ->
      ignore (Census.merge_result t g))

(* Folding the pieces of a split via [merge_result] must reproduce the
   full census byte-for-byte (rendered wire JSON) under ANY order of
   merging adjacent pieces — the property the distributed dispatcher
   leans on when shards complete out of order. The per-kind environment
   (full render + per-piece results) is computed lazily once; QCheck
   only drives the merge order. *)
let merge_perm_env kind version n parts =
  lazy
    (let full = Census.full_shard kind version n in
     let expected = render_result (Census.run_shard full) in
     let results = List.map Census.run_shard (Census.split full ~parts) in
     (expected, results))

let merge_in_seeded_order env seed =
  let expected, results = Lazy.force env in
  let rng = Prng.create seed in
  let rec merge_at i = function
    | a :: b :: tl when i = 0 -> Census.merge_result a b :: tl
    | a :: tl -> a :: merge_at (i - 1) tl
    | [] -> assert false
  in
  let rec reduce = function
    | [] -> assert false
    | [ r ] -> r
    | rs -> reduce (merge_at (Prng.int rng (List.length rs - 1)) rs)
  in
  String.equal expected (render_result (reduce results))

let tree_perm_env = merge_perm_env Census.Trees Game.Sum 6 7

let graph_perm_env = merge_perm_env Census.Graphs Game.Max 4 6

let orderly_perm_env = merge_perm_env Census.Orderly Game.Sum 6 7

let suite =
  [
    case "tree census sum (n <= 7)" test_tree_census_sum_small;
    case "tree census max (n <= 7)" test_tree_census_max_small;
    case "double star count n=6" test_double_star_count_n6;
    case "differential sum census vs brute force (n <= 6)"
      test_differential_sum_census_small;
    slow_case "differential sum census vs brute force (n = 7)"
      test_differential_sum_census_n7;
    case "graph census sum n=4" test_graph_census_sum;
    case "graph census max n=5" test_graph_census_max;
    slow_case "graph census max n=6 diameter 3" test_graph_census_max_diameter3_at_6;
    case "histogram consistency" test_histogram_consistent;
    case "split: cover, adjacency, determinism" test_split_properties;
    case "run_shard: pooled sub-range = sequential" test_run_shard_pooled_subrange;
    case "orderly census identical to rank-range (n <= 5)" test_orderly_identity_small;
    slow_case "orderly census identical to rank-range (n = 6)" test_orderly_identity_n6;
    case "merge_result rejects mixed kinds" test_merge_result_rejects_mixed;
    qcheck ~count:40 "tree census: any adjacent-merge order is identical"
      QCheck2.Gen.(int_range 0 1_000_000)
      (merge_in_seeded_order tree_perm_env);
    qcheck ~count:40 "graph census: any adjacent-merge order is identical"
      QCheck2.Gen.(int_range 0 1_000_000)
      (merge_in_seeded_order graph_perm_env);
    qcheck ~count:40 "orderly census: any adjacent-merge order is identical"
      QCheck2.Gen.(int_range 0 1_000_000)
      (merge_in_seeded_order orderly_perm_env);
  ]
