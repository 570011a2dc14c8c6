open Test_helpers

let check_float = Alcotest.(check (float 1e-9))

let star_game ?(alpha = 2.0) n = Alpha_game.create ~alpha (Generators.star n)

let alpha_equilibrium t = Equilibrium.check_alpha_game t = Equilibrium.Equilibrium

let test_create_defaults () =
  let t = star_game 5 in
  check_float "alpha" 2.0 (Alpha_game.alpha t);
  check_int "n" 5 (Alpha_game.n t);
  (* default owner: smaller endpoint = the center (vertex 0) *)
  check_int "owner" 0 (Alpha_game.owner t 0 3);
  check_int "center owns all" 4 (Alpha_game.owned_degree t 0);
  check_int "leaves own none" 0 (Alpha_game.owned_degree t 1)

let test_create_custom_owner () =
  let t = Alpha_game.create ~alpha:1.0 ~owner:(fun _ v -> v) (Generators.star 4) in
  check_int "leaves own" 1 (Alpha_game.owned_degree t 2);
  check_int "center owns none" 0 (Alpha_game.owned_degree t 0)

let test_create_rejects () =
  Alcotest.check_raises "negative alpha" (Invalid_argument "Alpha_game.create: negative alpha")
    (fun () -> ignore (Alpha_game.create ~alpha:(-1.0) (Generators.star 3)));
  Alcotest.check_raises "bad owner"
    (Invalid_argument "Alpha_game.create: owner 99 of edge 0-1 is not an endpoint")
    (fun () -> ignore (Alpha_game.create ~alpha:1.0 ~owner:(fun _ _ -> 99) (Generators.star 3)))

let test_agent_cost () =
  let t = star_game ~alpha:3.0 5 in
  (* center: 3*4 owned + distances 4 *)
  check_float "center" ((3.0 *. 4.0) +. 4.0) (Alpha_game.agent_cost t 0);
  (* leaf: no owned edges, distances 1 + 3*2 = 7 *)
  check_float "leaf" 7.0 (Alpha_game.agent_cost t 1)

let test_social_cost () =
  let t = star_game ~alpha:3.0 5 in
  (* alpha*m + social sum = 12 + (2*(4 + 12)) *)
  check_float "social" (12.0 +. 32.0) (Alpha_game.social_cost t)

let test_moves_applicability () =
  let t = star_game 4 in
  check_true "leaf can buy" (Alpha_game.is_applicable t (Alpha_game.Buy { actor = 1; target = 2 }));
  check_false "cannot buy existing" (Alpha_game.is_applicable t (Alpha_game.Buy { actor = 0; target = 1 }));
  check_true "owner can sell" (Alpha_game.is_applicable t (Alpha_game.Sell { actor = 0; target = 1 }));
  check_false "non-owner cannot sell" (Alpha_game.is_applicable t (Alpha_game.Sell { actor = 1; target = 0 }));
  check_true "owner can swap"
    (Alpha_game.is_applicable t (Alpha_game.Swap_owned { actor = 0; drop = 1; add = 1 }) = false);
  check_false "swap to existing" (Alpha_game.is_applicable t (Alpha_game.Swap_owned { actor = 0; drop = 1; add = 2 }))

let test_apply_undo_roundtrip () =
  let t = star_game 5 in
  let before_g = Graph.copy (Alpha_game.graph t) in
  let mv = Alpha_game.Buy { actor = 1; target = 2 } in
  Alpha_game.apply t mv;
  check_true "edge added" (Graph.mem_edge (Alpha_game.graph t) 1 2);
  check_int "buyer owns" 1 (Alpha_game.owner t 1 2);
  Alpha_game.undo t mv;
  check_true "graph restored" (Graph.equal before_g (Alpha_game.graph t))

let test_sell_undo_restores_ownership () =
  let t = star_game 5 in
  let mv = Alpha_game.Sell { actor = 0; target = 3 } in
  Alpha_game.apply t mv;
  check_false "edge gone" (Graph.mem_edge (Alpha_game.graph t) 0 3);
  Alpha_game.undo t mv;
  check_int "ownership restored" 0 (Alpha_game.owner t 0 3)

let test_delta_buy () =
  (* leaf buying an edge to another leaf: distance gain 1, cost alpha *)
  let cheap = star_game ~alpha:0.5 5 in
  let d = Alpha_game.delta cheap (Alpha_game.Buy { actor = 1; target = 2 }) in
  check_float "cheap buy improves" (0.5 -. 1.0) d;
  let dear = star_game ~alpha:2.0 5 in
  let d2 = Alpha_game.delta dear (Alpha_game.Buy { actor = 1; target = 2 }) in
  check_float "dear buy hurts" 1.0 d2

let test_delta_disconnecting_sell () =
  let t = star_game 4 in
  let d = Alpha_game.delta t (Alpha_game.Sell { actor = 0; target = 1 }) in
  check_true "infinite" (d = infinity)

let test_best_move_respects_alpha () =
  (* with very small alpha every agent wants to buy *)
  let t = star_game ~alpha:0.01 6 in
  (match Alpha_game.best_move t 1 with
  | Some (Alpha_game.Buy _, d) -> check_true "improving" (d < 0.0)
  | _ -> Alcotest.fail "expected buy");
  (* with huge alpha the star is already locally optimal *)
  let t2 = star_game ~alpha:1000.0 6 in
  check_true "star stable at high alpha" (alpha_equilibrium t2)

let test_star_equilibrium_for_alpha_ge_1 () =
  (* classic: the (center-owned) star is a Nash equilibrium for alpha >= 1 *)
  List.iter
    (fun alpha -> check_true "star stable" (alpha_equilibrium (star_game ~alpha 6)))
    [ 1.0; 2.0; 10.0 ]

let test_complete_equilibrium_small_alpha () =
  (* the complete graph is an equilibrium for alpha <= 1 *)
  let t = Alpha_game.create ~alpha:0.5 (Generators.complete 5) in
  check_true "complete stable" (alpha_equilibrium t)

let test_dynamics_converges () =
  let rng = Prng.create 4 in
  let t = Alpha_game.create ~alpha:3.0 (Random_graphs.tree rng 10) in
  let r = Alpha_game.run_dynamics t in
  check_true "converged" (r.Alpha_game.outcome = Alpha_game.Converged);
  check_true "local equilibrium" (alpha_equilibrium r.Alpha_game.state);
  check_true "input untouched" (Components.is_tree (Alpha_game.graph t))

let test_dynamics_keeps_connectivity () =
  let rng = Prng.create 6 in
  let t = Alpha_game.create ~alpha:1.5 (Random_graphs.connected_gnm rng 12 20) in
  let r = Alpha_game.run_dynamics t in
  check_true "connected" (Components.is_connected (Alpha_game.graph r.Alpha_game.state))

let test_optimal_social_cost () =
  (* n=4: star = a*3 + 6 + 12; complete = 6a + 12; equal at a = 2 *)
  check_float "alpha=2 breakeven"
    (Alpha_game.optimal_social_cost ~alpha:2.0 4)
    ((2.0 *. 3.0) +. 6.0 +. 12.0);
  check_true "small alpha prefers complete"
    (Alpha_game.optimal_social_cost ~alpha:0.1 4 < (0.1 *. 3.0) +. 6.0 +. 12.0)

let test_poa_at_least_one =
  qcheck ~count:20 "alpha PoA >= 1 at equilibria"
    QCheck2.Gen.(pair (int_range 4 10) (int_range 0 1000)) (fun (n, seed) ->
      let rng = Prng.create seed in
      let alpha = 0.5 +. Prng.float rng 5.0 in
      let t = Alpha_game.create ~alpha (Random_graphs.tree rng n) in
      let r = Alpha_game.run_dynamics t in
      r.Alpha_game.outcome <> Alpha_game.Converged
      || Poa.alpha_poa r.Alpha_game.state >= 1.0 -. 1e-9)

let suite =
  [
    case "create defaults" test_create_defaults;
    case "custom owner" test_create_custom_owner;
    case "create rejections" test_create_rejects;
    case "agent cost" test_agent_cost;
    case "social cost" test_social_cost;
    case "move applicability" test_moves_applicability;
    case "apply/undo buy" test_apply_undo_roundtrip;
    case "sell restores ownership" test_sell_undo_restores_ownership;
    case "delta of buy" test_delta_buy;
    case "disconnecting sell infinite" test_delta_disconnecting_sell;
    case "best move vs alpha" test_best_move_respects_alpha;
    case "star equilibrium alpha >= 1" test_star_equilibrium_for_alpha_ge_1;
    case "complete equilibrium small alpha" test_complete_equilibrium_small_alpha;
    case "dynamics converges" test_dynamics_converges;
    case "dynamics keeps connectivity" test_dynamics_keeps_connectivity;
    case "optimal social cost" test_optimal_social_cost;
    test_poa_at_least_one;
  ]
