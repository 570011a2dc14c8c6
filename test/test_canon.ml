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

let test_automorphisms_are_automorphisms () =
  let g = Generators.cycle 6 in
  List.iter
    (fun sigma ->
      Graph.iter_edges
        (fun u v -> check_true "edge preserved" (Graph.mem_edge g sigma.(u) sigma.(v)))
        g)
    (Canon.automorphisms g)

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

let suite =
  [
    case "refine splits degrees" test_refine_splits_degrees;
    case "refine path" test_refine_path;
    case "isomorphic relabelings" test_isomorphic_relabelings;
    case "non-isomorphic (components)" test_not_isomorphic;
    case "non-isomorphic (same degrees)" test_not_isomorphic_subtle;
    case "canonical form equality" test_canonical_form_equal_iff_isomorphic;
    case "automorphism counts" test_automorphism_counts;
    case "automorphisms preserve edges" test_automorphisms_are_automorphisms;
    case "orbits" test_orbits;
    case "vertex transitivity" test_vertex_transitive;
    case "size cap" test_size_cap;
    test_isomorphic_random_relabel;
    test_edge_toggle_breaks_isomorphism;
  ]
