open Test_helpers

let test_create () =
  let g = Graph.create 5 in
  check_int "n" 5 (Graph.n g);
  check_int "m" 0 (Graph.m g);
  for v = 0 to 4 do
    check_int "degree" 0 (Graph.degree g v)
  done

let test_add_edge () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  check_int "m" 1 (Graph.m g);
  check_true "mem both ways" (Graph.mem_edge g 0 1 && Graph.mem_edge g 1 0);
  check_false "absent" (Graph.mem_edge g 0 2);
  check_int "deg 0" 1 (Graph.degree g 0);
  check_int "deg 1" 1 (Graph.degree g 1)

let test_add_rejections () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_edge: duplicate edge")
    (fun () -> Graph.add_edge g 1 0);
  Alcotest.check_raises "range" (Invalid_argument "Graph: vertex out of range")
    (fun () -> Graph.add_edge g 0 3)

let test_try_add () =
  let g = Graph.create 3 in
  check_true "fresh" (Graph.try_add_edge g 0 1);
  check_false "duplicate" (Graph.try_add_edge g 1 0);
  check_int "m" 1 (Graph.m g)

let test_remove () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  Graph.remove_edge g 1 2;
  check_int "m" 2 (Graph.m g);
  check_false "gone" (Graph.mem_edge g 1 2);
  check_true "others stay" (Graph.mem_edge g 0 1 && Graph.mem_edge g 2 3);
  Alcotest.check_raises "absent removal" (Invalid_argument "Graph.remove_edge: absent edge")
    (fun () -> Graph.remove_edge g 0 3)

let test_neighbors_sorted () =
  let g = Graph.of_edges 5 [ (2, 4); (2, 0); (2, 3) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 3; 4 |] (Graph.neighbors g 2)

let test_iter_edges_canonical () =
  let g = Graph.of_edges 4 [ (3, 1); (0, 2) ] in
  Alcotest.(check (list (pair int int))) "u < v, sorted" [ (0, 2); (1, 3) ] (Graph.edges g)

let test_fold_neighbors () =
  let g = Graph.of_edges 4 [ (0, 1); (0, 2); (0, 3) ] in
  check_int "fold sum" 6 (Graph.fold_neighbors ( + ) 0 g 0)

let test_exists_neighbor () =
  let g = Graph.of_edges 4 [ (0, 1); (0, 2) ] in
  check_true "exists" (Graph.exists_neighbor (fun w -> w = 2) g 0);
  check_false "not exists" (Graph.exists_neighbor (fun w -> w = 3) g 0)

let test_copy_independent () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let h = Graph.copy g in
  Graph.add_edge h 1 2;
  check_int "original m" 1 (Graph.m g);
  check_int "copy m" 2 (Graph.m h);
  check_true "copies equal before divergence" (Graph.equal g (Graph.copy g))

let test_equal () =
  let a = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let b = Graph.of_edges 3 [ (1, 2); (0, 1) ] in
  let c = Graph.of_edges 3 [ (0, 1); (0, 2) ] in
  check_true "order independent" (Graph.equal a b);
  check_false "different edges" (Graph.equal a c);
  check_false "different n" (Graph.equal a (Graph.of_edges 4 [ (0, 1); (1, 2) ]))

let test_hash_invariance () =
  let a = Graph.of_edges 4 [ (0, 1); (2, 3); (1, 2) ] in
  let b = Graph.of_edges 4 [ (2, 3); (1, 2); (0, 1) ] in
  Alcotest.(check int64) "insertion-order independent" (Graph.hash a) (Graph.hash b);
  let c = Graph.of_edges 4 [ (0, 1); (2, 3); (0, 2) ] in
  check_false "different graphs differ" (Graph.hash a = Graph.hash c)

let test_hash_after_mutation () =
  let a = Graph.of_edges 3 [ (0, 1) ] in
  let h0 = Graph.hash a in
  Graph.add_edge a 1 2;
  Graph.remove_edge a 1 2;
  Alcotest.(check int64) "hash restored after undo" h0 (Graph.hash a)

let test_degree_stats () =
  let g = Generators.star 5 in
  check_int "max degree" 4 (Graph.max_degree g);
  check_int "min degree" 1 (Graph.min_degree g);
  Alcotest.(check (array int)) "degree sequence" [| 4; 1; 1; 1; 1 |] (Graph.degree_sequence g);
  check_false "star not regular" (Graph.is_regular g);
  check_true "cycle regular" (Graph.is_regular (Generators.cycle 5))

let test_complement_edges () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check (list (pair int int)))
    "complement" [ (0, 2); (0, 3); (1, 2); (1, 3) ]
    (Graph.complement_edges g);
  check_int "complete graph has empty complement" 0
    (List.length (Graph.complement_edges (Generators.complete 5)))

let test_handshake_property =
  qcheck "sum of degrees = 2m" (gen_any_graph ~min_n:1 ~max_n:20) (fun g ->
      let total = ref 0 in
      for v = 0 to Graph.n g - 1 do
        total := !total + Graph.degree g v
      done;
      !total = 2 * Graph.m g)

let test_remove_add_roundtrip =
  qcheck "remove then add restores equality" (gen_connected ~min_n:2 ~max_n:15)
    (fun g ->
      let h = Graph.copy g in
      match Graph.edges h with
      | (u, v) :: _ ->
        Graph.remove_edge h u v;
        Graph.add_edge h u v;
        Graph.equal g h && Graph.hash g = Graph.hash h
      | [] -> true)

let test_masks () =
  check_true "P3" (Graph.masks (Generators.path 3) = [| 0b010; 0b101; 0b010 |]);
  let star = Graph.masks (Generators.star 62) in
  check_true "62-star: bit 61 set, masks non-negative"
    (star.(61) = 1 && star.(0) = (1 lsl 62) - 2 && Array.for_all (fun m -> m >= 0) star);
  Alcotest.check_raises "63 vertices" (Invalid_argument "Graph.masks: more than 62 vertices")
    (fun () -> ignore (Graph.masks (Graph.create 63)))

let suite =
  [
    case "create" test_create;
    case "add_edge" test_add_edge;
    case "add rejections" test_add_rejections;
    case "try_add_edge" test_try_add;
    case "remove_edge" test_remove;
    case "neighbors sorted" test_neighbors_sorted;
    case "edges canonical" test_iter_edges_canonical;
    case "fold_neighbors" test_fold_neighbors;
    case "exists_neighbor" test_exists_neighbor;
    case "copy independence" test_copy_independent;
    case "equal" test_equal;
    case "hash invariance" test_hash_invariance;
    case "hash restored after undo" test_hash_after_mutation;
    case "degree statistics" test_degree_stats;
    case "complement edges" test_complement_edges;
    case "masks" test_masks;
    test_handshake_property;
    test_remove_add_roundtrip;
  ]
