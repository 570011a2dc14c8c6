open Test_helpers

let test_refine_splits_degrees () =
  let g = Generators.star 5 in
  let c = Canon.refine g in
  check_true "center vs leaves" (c.(0) <> c.(1));
  check_true "leaves alike" (c.(1) = c.(2) && c.(2) = c.(3))

let test_refine_path () =
  let c = Canon.refine (Generators.path 5) in
  (* refinement separates by distance to the ends: {0,4}, {1,3}, {2} *)
  check_true "ends alike" (c.(0) = c.(4));
  check_true "next alike" (c.(1) = c.(3));
  check_false "middle separate" (c.(2) = c.(1));
  check_false "ends vs next" (c.(0) = c.(1))

let test_isomorphic_relabelings () =
  let rng = Prng.create 42 in
  let g = Generators.petersen () in
  for _ = 1 to 5 do
    let perm = Array.init 10 (fun i -> i) in
    Prng.shuffle_in_place rng perm;
    check_true "relabel is isomorphic" (Canon.isomorphic g (relabel g perm))
  done

let test_not_isomorphic () =
  (* same degree sequence (all 2): C6 vs two triangles *)
  let c6 = Generators.cycle 6 in
  let two_triangles = Graph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ] in
  check_false "C6 vs 2xC3" (Canon.isomorphic c6 two_triangles)

let test_not_isomorphic_subtle () =
  (* two 6-vertex trees with degree sequence [3;2;2;1;1;1]: the spider
     S(2,2,1) vs the caterpillar (P5 plus a leaf on its second vertex) *)
  let spider = Graph.of_edges 6 [ (0, 1); (1, 2); (0, 3); (3, 4); (0, 5) ] in
  let caterpillar = Graph.of_edges 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (1, 5) ] in
  check_true "same degree sequences"
    (Graph.degree_sequence spider = Graph.degree_sequence caterpillar);
  check_false "not isomorphic" (Canon.isomorphic spider caterpillar)

let test_canonical_form_equal_iff_isomorphic () =
  let a = Generators.cycle 5 in
  let b = relabel a [| 2; 0; 3; 1; 4 |] in
  check_true "same form" (Canon.canonical_form a = Canon.canonical_form b);
  check_false "different graphs different form"
    (Canon.canonical_form (Generators.path 5) = Canon.canonical_form a)

let test_automorphism_counts () =
  check_int "C5 dihedral" 10 (Canon.automorphism_count (Generators.cycle 5));
  check_int "K4 symmetric group" 24 (Canon.automorphism_count (Generators.complete 4));
  check_int "P3 reflection" 2 (Canon.automorphism_count (Generators.path 3));
  check_int "star K1,3 leaf permutations" 6 (Canon.automorphism_count (Generators.star 4));
  check_int "Petersen" 120 (Canon.automorphism_count (Generators.petersen ()))

let test_generators_are_automorphisms () =
  let g = Generators.cycle 6 in
  List.iter
    (fun sigma ->
      Graph.iter_edges
        (fun u v -> check_true "edge preserved" (Graph.mem_edge g sigma.(u) sigma.(v)))
        g)
    (Canon.cert g).Canon.generators

let test_orbits () =
  let g = Generators.double_star 2 2 in
  let o = Canon.orbits g in
  (* roots {0,1} form one orbit, leaves {2..5} another *)
  check_true "roots together" (o.(0) = o.(1));
  check_true "leaves together" (o.(2) = o.(3) && o.(3) = o.(4) && o.(4) = o.(5));
  check_false "roots vs leaves" (o.(0) = o.(2))

let test_vertex_transitive () =
  check_true "cycle" (Canon.is_vertex_transitive (Generators.cycle 7));
  check_true "complete" (Canon.is_vertex_transitive (Generators.complete 5));
  check_true "petersen" (Canon.is_vertex_transitive (Generators.petersen ()));
  check_true "hypercube" (Canon.is_vertex_transitive (Generators.hypercube 3));
  (* the Theorem 12 torus at k = 2 (n = 8); k = 3 has 18 vertices, past
     the search cap *)
  check_true "torus k = 2" (Canon.is_vertex_transitive (Constructions.torus 2));
  check_false "path" (Canon.is_vertex_transitive (Generators.path 4));
  check_false "star" (Canon.is_vertex_transitive (Generators.star 4))

let test_size_cap () =
  Alcotest.check_raises "cap enforced"
    (Invalid_argument "Canon: graph exceeds max_search_vertices") (fun () ->
      ignore (Canon.canonical_form (Generators.cycle 17)))

let test_isomorphic_random_relabel =
  qcheck ~count:60 "random relabelings are isomorphic"
    QCheck2.Gen.(pair (gen_connected ~min_n:2 ~max_n:9) (int_range 0 10_000))
    (fun (g, seed) ->
      let rng = Prng.create seed in
      let perm = Array.init (Graph.n g) (fun i -> i) in
      Prng.shuffle_in_place rng perm;
      Canon.isomorphic g (relabel g perm))

let test_edge_toggle_breaks_isomorphism =
  qcheck ~count:60 "removing an edge breaks isomorphism"
    (gen_connected ~min_n:3 ~max_n:9) (fun g ->
      match Graph.edges g with
      | (u, v) :: _ ->
        let h = Graph.copy g in
        Graph.remove_edge h u v;
        not (Canon.isomorphic g h)
      | [] -> true)

(* --- the search against its oracle ----------------------------------------- *)

let check_int_array = Alcotest.(check (array int))

(* every field the oracle has, on [g] as given *)
let check_against_oracle what g =
  let c = Canon.cert g and o = Canon_oracle.cert g in
  let label field = Printf.sprintf "%s %S: %s" what (Graph6.encode g) field in
  Alcotest.(check string) (label "form") o.Canon_oracle.form c.Canon.form;
  check_int_array (label "perm") o.Canon_oracle.perm c.Canon.perm;
  check_int (label "aut_count") o.Canon_oracle.aut_count c.Canon.aut_count;
  check_int_array (label "position_vertices") o.Canon_oracle.position_vertices
    c.Canon.position_vertices

(* every connected class on [n] vertices, as generated and randomly
   relabeled *)
let check_oracle_classes n =
  let rng = Prng.create n in
  Orderly.iter n (fun g _ ->
      let perm = Array.init n Fun.id in
      Prng.shuffle_in_place rng perm;
      check_against_oracle "class" g;
      check_against_oracle "relabeled class" (relabel g perm))

let test_oracle_small () =
  for n = 1 to 7 do
    check_oracle_classes n
  done

let test_oracle_n8 () = check_oracle_classes 8

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* Symmetric families up to 16 vertices with their closed-form |Aut|,
   each with a random relabeling. *)
let families =
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let rng = Prng.create 16 in
  let relabeled g =
    let perm = Array.init (Graph.n g) Fun.id in
    Prng.shuffle_in_place rng perm;
    relabel g perm
  in
  List.map
    (fun (name, g, aut) -> (name, g, relabeled g, aut))
    (List.concat
       [
         List.map (fun n -> (Printf.sprintf "star %d" n, Generators.star n, factorial (n - 1))) (range 3 16);
         List.map (fun k -> (Printf.sprintf "wheel %d" k, Generators.wheel k, 2 * k)) (range 4 15);
         List.concat_map
           (fun a ->
             List.map
               (fun b ->
                 ( Printf.sprintf "K_{%d,%d}" a b,
                   Generators.complete_bipartite a b,
                   factorial a * factorial b * if a = b then 2 else 1 ))
               (range a (16 - a)))
           (range 2 8);
         List.map
           (fun k ->
             (Printf.sprintf "friendship %d" k, Generators.friendship k, (1 lsl k) * factorial k))
           (range 2 7);
         List.map
           (fun k ->
             ( Printf.sprintf "cocktail party %d" k,
               Generators.cocktail_party k,
               (1 lsl k) * factorial k ))
           (range 2 8);
         List.map (fun n -> (Printf.sprintf "K%d" n, Generators.complete n, factorial n)) (range 1 16);
       ])

let test_families_closed_form () =
  List.iter
    (fun (name, g, h, aut) ->
      let c = Canon.cert g in
      check_int (name ^ ": |Aut|") aut c.Canon.aut_count;
      check_int (name ^ " relabeled: |Aut|") aut (Canon.cert h).Canon.aut_count;
      Alcotest.(check string) (name ^ " relabeled: form") c.Canon.form (Canon.canonical_form h))
    families

(* The oracle visits at least |Aut| leaves: 9! of them take it about
   0.3 s on a 2-core VM, and the costliest member below that bound (the
   15-rim wheel) about 0.6 s. *)
let test_families_oracle () =
  List.iter
    (fun (name, _, h, aut) -> if aut <= factorial 9 then check_against_oracle name h)
    families

(* The search is counted, not timed: one [canon.nodes] tick per node.
   Without automorphism pruning a 16-vertex star needs 15! leaves. *)
let canon_nodes = Telemetry.counter "canon.nodes"

let search_nodes g =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let before = Telemetry.counter_value canon_nodes in
  ignore (Canon.cert g);
  let nodes = Telemetry.counter_value canon_nodes - before in
  Telemetry.set_enabled was;
  nodes

let test_symmetric_node_counts () =
  let perm = Array.init 16 (fun v -> ((v * 7) + 3) mod 16) in
  let star = relabel (Generators.star 16) perm in
  check_true "relabeled star 16: <= 256 nodes" (search_nodes star <= 256);
  check_true "K16: <= 256 nodes" (search_nodes (Generators.complete 16) <= 256)

(* --- refine against its oracle ----------------------------------------------- *)

let check_refine what g =
  check_int_array
    (Printf.sprintf "%s %S: refine" what (Graph6.encode g))
    (Canon_oracle.refine g) (Canon.refine g)

let check_refine_classes n =
  let rng = Prng.create n in
  Orderly.iter n (fun g _ ->
      let perm = Array.init n Fun.id in
      Prng.shuffle_in_place rng perm;
      check_refine "class" g;
      check_refine "relabeled class" (relabel g perm))

(* every class up to n = 7, the empty graph, and seeded G(n, p) up to
   n = 60 with p skewed low, so many are disconnected *)
let test_refine_oracle_small () =
  for n = 1 to 7 do
    check_refine_classes n
  done;
  check_refine "empty" (Graph.create 0);
  let rng = Prng.create 60 in
  for _ = 1 to 2000 do
    let n = Prng.int rng 61 in
    let p = Prng.float rng 1.0 ** 3. in
    check_refine "G(n, p)" (Random_graphs.gnp rng n p)
  done

let test_refine_oracle_n8 () = check_refine_classes 8

(* --- degrees and colors along perm ------------------------------------------ *)

(* Positions take [refine]'s classes in color order, and colors start
   from ascending degree, so neither colors nor degrees ever decrease
   along [perm]. [Orderly]'s degree and color tests depend on it. *)
let check_degree_order what g =
  let perm = (Canon.cert g).Canon.perm in
  let ascending field values =
    let sorted = Array.copy values in
    Array.sort Int.compare sorted;
    check_int_array (Printf.sprintf "%s %S: %s along perm" what (Graph6.encode g) field) sorted values
  in
  ascending "degrees" (Array.map (Graph.degree g) perm);
  let colors = Canon.refine g in
  ascending "colors" (Array.map (Array.get colors) perm)

(* every class up to n = 7, as generated and relabeled, and seeded
   G(n, p) up to n = 16 *)
let test_degree_order () =
  for n = 1 to 7 do
    let rng = Prng.create n in
    Orderly.iter n (fun g _ ->
        let perm = Array.init n Fun.id in
        Prng.shuffle_in_place rng perm;
        check_degree_order "class" g;
        check_degree_order "relabeled class" (relabel g perm))
  done;
  let rng = Prng.create 16 in
  for _ = 1 to 3000 do
    let n = Prng.int rng 17 in
    check_degree_order "G(n, p)" (Random_graphs.gnp rng n (Prng.float rng 1.0))
  done

(* refinement runs on [Graph.masks] rows, one int per vertex *)
let test_refine_domain () =
  check_int "62 vertices: the star's center and its leaves" 2
    (List.length (Stats.histogram (Canon.refine (Generators.star 62))));
  Alcotest.check_raises "63 vertices" (Invalid_argument "Graph.masks: more than 62 vertices")
    (fun () -> ignore (Canon.refine (Generators.star 63)))

let suite =
  [
    case "refine splits degrees" test_refine_splits_degrees;
    case "refine path" test_refine_path;
    case "isomorphic relabelings" test_isomorphic_relabelings;
    case "non-isomorphic (components)" test_not_isomorphic;
    case "non-isomorphic (same degrees)" test_not_isomorphic_subtle;
    case "canonical form equality" test_canonical_form_equal_iff_isomorphic;
    case "automorphism counts" test_automorphism_counts;
    case "automorphisms preserve edges" test_generators_are_automorphisms;
    case "orbits" test_orbits;
    case "vertex transitivity" test_vertex_transitive;
    case "size cap" test_size_cap;
    test_isomorphic_random_relabel;
    test_edge_toggle_breaks_isomorphism;
    case "cert = oracle on every class (n <= 7), relabeled too" test_oracle_small;
    slow_case "cert = oracle on every class (n = 8), relabeled too" test_oracle_n8;
    case "symmetric families: closed-form |Aut|, one form per class" test_families_closed_form;
    slow_case "symmetric families = oracle below 9! automorphisms" test_families_oracle;
    case "16-vertex star and K16 in few search nodes" test_symmetric_node_counts;
    case "refine = oracle: classes (n <= 7) relabeled too, empty, G(n, p) to n = 60"
      test_refine_oracle_small;
    slow_case "refine = oracle on every class (n = 8), relabeled too" test_refine_oracle_n8;
    case "degrees never decrease along perm, nor colors: classes (n <= 7), G(n, p) to n = 16"
      test_degree_order;
    case "refine takes at most 62 vertices" test_refine_domain;
  ]
