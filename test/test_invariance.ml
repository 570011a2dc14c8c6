(* Cross-cutting invariance properties: game-theoretic predicates must be
   label-independent, dynamics must be seed-deterministic, and the two
   serialization formats must agree. *)

open Test_helpers

let with_random_perm seed g f =
  let rng = Prng.create seed in
  let perm = Array.init (Graph.n g) (fun i -> i) in
  Prng.shuffle_in_place rng perm;
  f (relabel g perm)

let test_equilibrium_label_invariant =
  qcheck ~count:40 "sum equilibrium is label-invariant"
    QCheck2.Gen.(pair (gen_connected ~min_n:3 ~max_n:10) (int_range 0 10_000))
    (fun (g, seed) ->
      with_random_perm seed g (fun h ->
          Equilibrium.is_sum_equilibrium g = Equilibrium.is_sum_equilibrium h))

let test_max_equilibrium_label_invariant =
  qcheck ~count:40 "max equilibrium is label-invariant"
    QCheck2.Gen.(pair (gen_connected ~min_n:3 ~max_n:9) (int_range 0 10_000))
    (fun (g, seed) ->
      with_random_perm seed g (fun h ->
          Equilibrium.is_max_equilibrium g = Equilibrium.is_max_equilibrium h))

let test_diameter_label_invariant =
  qcheck ~count:40 "diameter is label-invariant"
    QCheck2.Gen.(pair (gen_any_graph ~min_n:2 ~max_n:14) (int_range 0 10_000))
    (fun (g, seed) ->
      with_random_perm seed g (fun h -> Metrics.diameter g = Metrics.diameter h))

let test_dynamics_deterministic =
  qcheck ~count:20 "dynamics is deterministic given the seed"
    QCheck2.Gen.(pair (gen_connected ~min_n:4 ~max_n:12) (int_range 0 10_000))
    (fun (g, seed) ->
      let run () =
        let rng = Prng.create seed in
        let cfg =
          {
            (Dynamics.default_config Game.Sum) with
            Dynamics.rule = Dynamics.Random_improving;
            schedule = Dynamics.Random_agent;
          }
        in
        Dynamics.run ~rng cfg g
      in
      let a = run () and b = run () in
      Graph.equal a.Dynamics.final b.Dynamics.final
      && a.Dynamics.moves = b.Dynamics.moves
      && a.Dynamics.outcome = b.Dynamics.outcome)

let test_formats_agree =
  qcheck ~count:60 "graph6 and edge-list serializations agree"
    (gen_any_graph ~min_n:0 ~max_n:20) (fun g ->
      let via_g6 = Graph6.decode (Graph6.encode g) in
      let via_el = Graph_io.of_edge_list (Graph_io.to_edge_list g) in
      Graph.equal via_g6 via_el)

let test_social_cost_label_invariant =
  qcheck ~count:40 "social cost is label-invariant"
    QCheck2.Gen.(pair (gen_connected ~min_n:2 ~max_n:12) (int_range 0 10_000))
    (fun (g, seed) ->
      with_random_perm seed g (fun h ->
          Usage_cost.social_cost Usage_cost.Sum g
          = Usage_cost.social_cost Usage_cost.Sum h))

let test_uniformity_label_invariant =
  qcheck ~count:30 "distance-uniformity profile is label-invariant"
    QCheck2.Gen.(pair (gen_connected ~min_n:3 ~max_n:12) (int_range 0 10_000))
    (fun (g, seed) ->
      with_random_perm seed g (fun h ->
          let a = Distance_uniform.best_uniform g
          and b = Distance_uniform.best_uniform h in
          a.Distance_uniform.r = b.Distance_uniform.r
          && abs_float (a.Distance_uniform.epsilon -. b.Distance_uniform.epsilon) < 1e-9))

let suite =
  [
    test_equilibrium_label_invariant;
    test_max_equilibrium_label_invariant;
    test_diameter_label_invariant;
    test_dynamics_deterministic;
    test_formats_agree;
    test_social_cost_label_invariant;
    test_uniformity_label_invariant;
  ]
