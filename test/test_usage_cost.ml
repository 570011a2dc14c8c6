open Test_helpers

let ws n = Bfs.create_workspace n

let test_sum_cost_star () =
  let g = Generators.star 5 in
  let w = ws 5 in
  check_int "center" 4 (Usage_cost.vertex_cost w Usage_cost.Sum g 0);
  check_int "leaf" (1 + (3 * 2)) (Usage_cost.vertex_cost w Usage_cost.Sum g 1)

let test_max_cost_path () =
  let g = Generators.path 5 in
  let w = ws 5 in
  check_int "endpoint" 4 (Usage_cost.vertex_cost w Usage_cost.Max g 0);
  check_int "center" 2 (Usage_cost.vertex_cost w Usage_cost.Max g 2)

let test_disconnected_infinite () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let w = ws 3 in
  check_true "sum infinite" (Usage_cost.is_infinite (Usage_cost.vertex_cost w Usage_cost.Sum g 0));
  check_true "max infinite" (Usage_cost.is_infinite (Usage_cost.vertex_cost w Usage_cost.Max g 0));
  check_false "finite not infinite" (Usage_cost.is_infinite 1000)

let test_social_cost () =
  (* star: social sum = 2 * wiener = 2 * (n-1 + (n-1)(n-2)) *)
  let g = Generators.star 5 in
  check_int "social sum" (2 * (4 + 12)) (Usage_cost.social_cost Usage_cost.Sum g);
  check_int "social max = diameter" 2 (Usage_cost.social_cost Usage_cost.Max g);
  check_true "disconnected infinite"
    (Usage_cost.is_infinite (Usage_cost.social_cost Usage_cost.Sum (Graph.create 3)))

let test_social_cost_empty () =
  check_int "empty graph" 0 (Usage_cost.social_cost Usage_cost.Sum (Graph.create 0));
  check_int "K1 sum" 0 (Usage_cost.social_cost Usage_cost.Sum (Graph.create 1))

let test_lower_bound () =
  (* diameter-2 graphs achieve the sum bound exactly, e.g. the star *)
  let g = Generators.star 6 in
  check_int "star matches bound"
    (Usage_cost.social_cost_lower_bound Usage_cost.Sum ~n:6 ~m:5)
    (Usage_cost.social_cost Usage_cost.Sum g);
  check_int "complete max bound" 1
    (Usage_cost.social_cost_lower_bound Usage_cost.Max ~n:5 ~m:10);
  check_int "non-complete max bound" 2
    (Usage_cost.social_cost_lower_bound Usage_cost.Max ~n:5 ~m:9)

let test_social_sum_is_twice_wiener =
  qcheck ~count:60 "social sum = 2 * Wiener" (gen_connected ~min_n:2 ~max_n:20) (fun g ->
      match Metrics.wiener_index g with
      | Some w -> Usage_cost.social_cost Usage_cost.Sum g = 2 * w
      | None -> false)

let test_lower_bound_is_lower =
  qcheck ~count:60 "lower bound below actual cost" (gen_connected ~min_n:2 ~max_n:15)
    (fun g ->
      Usage_cost.social_cost_lower_bound Usage_cost.Sum ~n:(Graph.n g) ~m:(Graph.m g)
      <= Usage_cost.social_cost Usage_cost.Sum g)

let suite =
  [
    case "sum cost on star" test_sum_cost_star;
    case "max cost on path" test_max_cost_path;
    case "disconnection is infinite" test_disconnected_infinite;
    case "social cost" test_social_cost;
    case "social cost trivial graphs" test_social_cost_empty;
    case "lower bound formulas" test_lower_bound;
    test_lower_bound_is_lower;
    test_social_sum_is_twice_wiener;
  ]
