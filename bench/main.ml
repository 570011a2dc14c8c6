(* Bechamel microbenchmarks: one test per experiment kernel (the
   computation that regenerates each table/figure of the paper), the
   substrate kernels under them, and naive-vs-engine swap-evaluation
   pairs. Prints a table to stdout; the gated benchmark is bench/e2e.

     dune exec bench/main.exe
*)

open Bechamel
open Toolkit

let stage = Staged.stage

(* --- fixed inputs, built once ------------------------------------------ *)

let torus3 = Constructions.torus 3
let torus8 = Constructions.torus 8
let torus_d32 = Constructions.torus_d ~dim:3 2
let witness = Constructions.sum_diameter3_witness
let polarity5 = Polarity.polarity_graph 5
let hypercube7 = Generators.hypercube 7
let cycle32 = Generators.cycle 32
let blobs = Generators.path_with_blobs ~arms:4 ~arm_len:6 ~blob:12
let tree32 = Random_graphs.tree (Prng.create 1) 32
let gnm24 = Random_graphs.connected_gnm (Prng.create 2) 24 48
let tree10 = Random_graphs.tree (Prng.create 3) 10
let torus8_csr = Csr.of_graph torus8
let tree256 = Random_graphs.tree (Prng.create 4) 256
let tree256_pre = Tree_opt.precompute tree256

let bfs_ws = Bfs.create_workspace (Graph.n torus8)

let csr_dist = Array.make (Graph.n torus8) (-1)
let csr_queue = Array.make (Graph.n torus8) 0

(* --- substrate microbenchmarks ----------------------------------------- *)

let substrate_tests =
  [
    Test.make ~name:"bfs/torus-k8-n128" (stage (fun () -> Bfs.run bfs_ws torus8 0));
    Test.make ~name:"bfs-csr/torus-k8-n128"
      (stage (fun () -> Csr.bfs_into torus8_csr 0 ~dist:csr_dist ~queue:csr_queue));
    Test.make ~name:"all-pairs/torus-k8" (stage (fun () -> Bfs.all_pairs torus8));
    Test.make ~name:"swap-delta/torus-k3"
      (stage (fun () ->
           Swap.delta bfs_ws Usage_cost.Sum torus3
             (Swap.Swap { actor = 0; drop = Graph.nth_neighbor torus3 0 0; add = 9 })));
    Test.make ~name:"graph-hash/torus-k8" (stage (fun () -> Graph.hash torus8));
    Test.make ~name:"girth/torus-k8" (stage (fun () -> Metrics.girth torus8));
    Test.make ~name:"diameter/torus-k8" (stage (fun () -> Metrics.diameter torus8));
    Test.make ~name:"canonical-form/petersen"
      (stage (fun () -> Canon.canonical_form (Generators.petersen ())));
    Test.make ~name:"construct/torus-k8" (stage (fun () -> Constructions.torus 8));
    Test.make ~name:"graph6-roundtrip/torus-k8"
      (stage (fun () -> Graph6.decode (Graph6.encode torus8)));
    Test.make ~name:"diameter-ifub/torus-k8"
      (stage (fun () -> Fast_diameter.diameter torus8));
    Test.make ~name:"betweenness/torus-k8"
      (stage (fun () -> Centrality.betweenness torus8));
    Test.make ~name:"tree-opt-precompute/n256"
      (stage (fun () -> Tree_opt.precompute tree256));
    Test.make ~name:"tree-opt-best-swap/n256"
      (stage (fun () -> Tree_opt.best_swap tree256_pre 0));
    Test.make ~name:"spectral-fiedler/torus-k8"
      (stage (fun () -> Spectral.algebraic_connectivity ~iterations:500 torus8));
    Test.make ~name:"lemma8-audit/hypercube-q4"
      (stage (fun () -> Lemmas.check_lemma8 (Generators.hypercube 4)));
  ]

(* --- naive oracle vs incremental swap-evaluation engine ------------------ *)

(* One full best-response scan over every agent: the workload the
   equilibrium checkers, census and dynamics all reduce to. The naive
   side pays two BFS per candidate move ({!Swap.best_move}); the engine
   side answers most candidates from cached rows and bounds
   ({!Swap_eval.best_move}). Workspace/engine creation is inside the
   kernel so both sides charge their own setup. *)
let scan_naive version g () =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  for v = 0 to n - 1 do
    ignore (Swap.best_move ws version g v)
  done

let scan_engine version g () =
  let n = Graph.n g in
  let eng = Swap_eval.create g in
  for v = 0 to n - 1 do
    ignore (Swap_eval.best_move eng version v)
  done

let star24 = Generators.star 24
let path24 = Generators.path 24
let petersen_pendant = Constructions.petersen_with_pendant ()
let gnm20 = Random_graphs.connected_gnm (Prng.create 5) 20 40

let swap_eval_tests =
  let pair name version g =
    [
      Test.make ~name:(Printf.sprintf "swapeval/%s-naive" name)
        (stage (scan_naive version g));
      Test.make ~name:(Printf.sprintf "swapeval/%s-engine" name)
        (stage (scan_engine version g));
    ]
  in
  List.concat
    [
      pair "star-n24-sum" Usage_cost.Sum star24;
      pair "path-n24-sum" Usage_cost.Sum path24;
      pair "torus-k3-max" Usage_cost.Max torus3;
      pair "petersen-pendant-max" Usage_cost.Max petersen_pendant;
      pair "gnm-n20-sum" Usage_cost.Sum gnm20;
    ]

(* --- one kernel per experiment table ------------------------------------ *)

let experiment_tests =
  [
    Test.make ~name:"E1/tree-census-sum-n6"
      (stage (fun () -> Census.tree_census Game.Sum 6));
    Test.make ~name:"E2/tree-census-max-n6"
      (stage (fun () -> Census.tree_census Game.Max 6));
    Test.make ~name:"E3/sum-eq-check-witness-n11"
      (stage (fun () -> Equilibrium.is_sum_equilibrium witness));
    Test.make ~name:"E4/graph-census-sum-n5"
      (stage (fun () -> Census.game_census Game.Sum 5));
    Test.make ~name:"E5/max-eq-check-torus-k3"
      (stage (fun () -> Equilibrium.is_max_equilibrium torus3));
    Test.make ~name:"E6/insertion-stability-torus-d3"
      (stage (fun () -> Equilibrium.is_stable_under_insertions torus_d32 ~k:2));
    Test.make ~name:"E7/sum-dynamics-n32"
      (stage (fun () -> Dynamics.converge_sum ~rng:(Prng.create 1) tree32));
    Test.make ~name:"E8/max-dynamics-n24"
      (stage (fun () -> Dynamics.converge_max ~rng:(Prng.create 2) gnm24));
    Test.make ~name:"E9/power-report-c32"
      (stage (fun () -> Distance_uniform.power_report cycle32 ~x:3));
    Test.make ~name:"E10/uniformity-hypercube-q7"
      (stage (fun () -> Distance_uniform.best_uniform hypercube7));
    Test.make ~name:"E11/alpha-dynamics-n10"
      (stage (fun () ->
           Alpha_game.run_dynamics (Alpha_game.create ~alpha:3.0 tree10)));
    Test.make ~name:"E12/exact-optimum-n5"
      (stage (fun () -> Poa.exact_optimum_sum 5 6));
    Test.make ~name:"E13/corollary11-polarity-q5"
      (stage (fun () -> Theory.corollary11_max_gain polarity5));
    Test.make ~name:"E14/pairwise-modal-blobs"
      (stage (fun () -> Distance_uniform.pairwise_modal_fraction blobs));
    Test.make ~name:"E15/hunt-score-n10"
      (stage (fun () -> Hunt.violating_agents Game.Sum gnm24));
    Test.make ~name:"E16/2-swap-check-witness"
      (stage (fun () ->
           Equilibrium.is_stable_under_k_swaps Usage_cost.Sum witness ~k:2));
    Test.make ~name:"E17/dynamics-random-rule-n24"
      (stage (fun () ->
           let cfg =
             {
               (Dynamics.default_config Game.Sum) with
               Dynamics.rule = Dynamics.Random_improving;
             }
           in
           Dynamics.run ~rng:(Prng.create 3) cfg gnm24));
  ]

(* --- runner -------------------------------------------------------------- *)

let run_benchmarks tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~stabilize:false ()
  in
  let t = Test.make_grouped ~name:"bncg" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances t in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  (* sorted, aligned plain-text report *)
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  let t = Table.create ~title:"Bechamel microbenchmarks (monotonic clock)"
      ~columns:[ ("benchmark", Table.Left); ("time / run", Table.Right) ]
  in
  List.iter
    (fun (name, ns) ->
      let cell =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Table.add_row t [ name; cell ])
    rows;
  Table.print t;
  rows

(* every "<kernel>-naive" row paired with its "<kernel>-engine" sibling *)
let print_speedups rows =
  let pairs =
    List.filter_map
      (fun (name, naive_ns) ->
        match Filename.chop_suffix_opt ~suffix:"-naive" name with
        | None -> None
        | Some kernel -> (
          match List.assoc_opt (kernel ^ "-engine") rows with
          | Some engine_ns
            when (not (Float.is_nan naive_ns)) && not (Float.is_nan engine_ns) ->
            Some (kernel, naive_ns /. engine_ns)
          | _ -> None))
      rows
  in
  let t =
    Table.create ~title:"swap-eval speedup (naive / engine)"
      ~columns:[ ("kernel", Table.Left); ("speedup", Table.Right) ]
  in
  List.iter
    (fun (kernel, s) -> Table.add_row t [ kernel; Printf.sprintf "%.2fx" s ])
    pairs;
  Table.print t

let () =
  print_endline "=== bncg benchmark harness ===\n";
  (* BNCG_STATS: telemetry totals for the whole benchmark sweep. The
     numbers aggregate every timed iteration, so they profile the harness
     run, not a single kernel invocation. *)
  Exp_common.with_stats (fun () ->
      print_speedups
        (run_benchmarks (substrate_tests @ swap_eval_tests @ experiment_tests)))
