open Test_helpers

let check_opt_int = Alcotest.(check (option int))

let test_diameter_families () =
  check_opt_int "path" (Some 5) (Metrics.diameter (Generators.path 6));
  check_opt_int "cycle even" (Some 3) (Metrics.diameter (Generators.cycle 6));
  check_opt_int "cycle odd" (Some 3) (Metrics.diameter (Generators.cycle 7));
  check_opt_int "star" (Some 2) (Metrics.diameter (Generators.star 5));
  check_opt_int "complete" (Some 1) (Metrics.diameter (Generators.complete 4));
  check_opt_int "K1" (Some 0) (Metrics.diameter (Generators.star 1));
  check_opt_int "disconnected" None (Metrics.diameter (Graph.of_edges 3 [ (0, 1) ]))

let test_radius () =
  check_opt_int "path radius" (Some 3) (Metrics.radius (Generators.path 6));
  check_opt_int "star radius" (Some 1) (Metrics.radius (Generators.star 5));
  check_opt_int "K1 radius" (Some 0) (Metrics.radius (Generators.star 1))

let test_eccentricities () =
  (match Metrics.eccentricities (Generators.path 4) with
  | Some e -> Alcotest.(check (array int)) "path eccs" [| 3; 2; 2; 3 |] e
  | None -> Alcotest.fail "connected");
  check_true "disconnected -> None"
    (Metrics.eccentricities (Graph.of_edges 6 [ (0, 1); (2, 3); (4, 5) ]) = None)

let test_wiener () =
  (* star K1,3: pairs at distance 1: 3 edges; leaf pairs at 2: 3 pairs -> 3 + 6 *)
  check_opt_int "star wiener" (Some 9) (Metrics.wiener_index (Generators.star 4));
  (* path P4: 1+1+1 + 2+2 + 3 = 10 *)
  check_opt_int "path wiener" (Some 10) (Metrics.wiener_index (Generators.path 4));
  check_opt_int "disconnected" None (Metrics.wiener_index (Graph.create 2))

let test_average_distance () =
  match Metrics.average_distance (Generators.complete 5) with
  | Some a -> Alcotest.(check (float 1e-9)) "complete avg" 1.0 a
  | None -> Alcotest.fail "connected"

let test_girth () =
  check_opt_int "tree has none" None (Metrics.girth (Generators.star 6));
  check_opt_int "triangle" (Some 3) (Metrics.girth (Generators.complete 4));
  check_opt_int "C5" (Some 5) (Metrics.girth (Generators.cycle 5));
  check_opt_int "C9" (Some 9) (Metrics.girth (Generators.cycle 9));
  check_opt_int "Petersen girth 5" (Some 5) (Metrics.girth (Generators.petersen ()));
  check_opt_int "hypercube girth 4" (Some 4) (Metrics.girth (Generators.hypercube 3));
  check_opt_int "K3,3 girth 4" (Some 4) (Metrics.girth (Generators.complete_bipartite 3 3));
  (* triangle with a pendant path: girth still 3 *)
  check_opt_int "lollipop" (Some 3) (Metrics.girth (Generators.lollipop 3 4))

let test_distance_histogram () =
  let g = Generators.cycle 6 in
  Alcotest.(check (array int)) "C6 spheres" [| 1; 2; 2; 1 |] (Metrics.distance_histogram g 0);
  let s = Generators.star 5 in
  Alcotest.(check (array int)) "star center" [| 1; 4 |] (Metrics.distance_histogram s 0);
  Alcotest.(check (array int)) "star leaf" [| 1; 1; 3 |] (Metrics.distance_histogram s 1)

let test_ball_sizes () =
  Alcotest.(check (array int)) "C6 balls" [| 1; 3; 5; 6 |]
    (Metrics.ball_sizes (Generators.cycle 6) 0)

let test_local_metrics () =
  let g = Generators.path 4 in
  check_opt_int "endpoint local diameter" (Some 3) (Metrics.local_diameter g 0);
  check_opt_int "middle local diameter" (Some 2) (Metrics.local_diameter g 1);
  check_opt_int "endpoint sum" (Some 6) (Metrics.sum_distance g 0);
  check_opt_int "middle sum" (Some 4) (Metrics.sum_distance g 1);
  check_opt_int "disconnected" None (Metrics.sum_distance (Graph.of_edges 3 [ (0, 1) ]) 0)

let test_distance_formula_check () =
  let g = Generators.cycle 8 in
  let good u v =
    let d = abs (u - v) in
    min d (8 - d)
  in
  check_true "correct formula accepted" (Metrics.is_distance_formula g good);
  check_false "wrong formula rejected"
    (Metrics.is_distance_formula g (fun u v -> abs (u - v)))

let test_diameter_vs_eccentricities =
  qcheck ~count:50 "diameter = max ecc, radius = min ecc"
    (gen_connected ~min_n:2 ~max_n:20) (fun g ->
      match Metrics.eccentricities g, Metrics.diameter g, Metrics.radius g with
      | Some e, Some d, Some r ->
        d = Array.fold_left max e.(0) e && r = Array.fold_left min e.(0) e
      | _ -> false)

let test_radius_diameter_bounds =
  qcheck ~count:50 "r <= d <= 2r" (gen_connected ~min_n:2 ~max_n:20) (fun g ->
      match Metrics.diameter g, Metrics.radius g with
      | Some d, Some r -> r <= d && d <= 2 * r
      | _ -> false)

let test_histogram_sums_to_n =
  qcheck ~count:50 "sphere sizes sum to n" (gen_connected ~min_n:1 ~max_n:20) (fun g ->
      let h = Metrics.distance_histogram g 0 in
      Array.fold_left ( + ) 0 h = Graph.n g)

let suite =
  [
    case "diameter families" test_diameter_families;
    case "radius" test_radius;
    case "eccentricities" test_eccentricities;
    case "wiener index" test_wiener;
    case "average distance" test_average_distance;
    case "girth" test_girth;
    case "distance histogram" test_distance_histogram;
    case "ball sizes" test_ball_sizes;
    case "local diameter / sum" test_local_metrics;
    case "distance formula checker" test_distance_formula_check;
    test_diameter_vs_eccentricities;
    test_radius_diameter_bounds;
    test_histogram_sums_to_n;
  ]
