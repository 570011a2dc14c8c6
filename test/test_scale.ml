(* The lib/scale subsystem: Flexcsr mutation + BFS kernels against
   Graph/Csr oracles, bit-parallel BFS against scalar BFS on 200 seeded
   graphs, generator invariants (edge counts, same-seed byte-identity),
   and the engine-level differential: the sampled scale engine must
   reproduce Dynamics' move sequences byte-identically. *)

open Test_helpers

let connected_graph seed n m = Random_graphs.connected_gnm (Prng.create seed) n m

(* (reached, sum, ecc) oracle from a Csr BFS row *)
let stats_of_dist dist =
  let reached = ref 0 and sum = ref 0 and ecc = ref 0 in
  Array.iter
    (fun d ->
      if d >= 0 then begin
        incr reached;
        sum := !sum + d;
        if d > !ecc then ecc := d
      end)
    dist;
  (!reached, !sum, !ecc)

(* --- Flexcsr ----------------------------------------------------------- *)

let test_flexcsr_roundtrip () =
  for seed = 1 to 10 do
    let g = connected_graph seed 20 40 in
    let csr = Csr.of_graph g in
    let fx = Flexcsr.of_csr csr in
    check_int "n" (Csr.n csr) (Flexcsr.n fx);
    check_int "m" (Csr.m csr) (Flexcsr.m fx);
    check_true "roundtrip" (Csr.equal csr (Flexcsr.to_csr fx));
    check_true "to_graph" (Graph.equal g (Flexcsr.to_graph fx))
  done

let test_flexcsr_mutation_oracle () =
  (* random interleaved adds/removes tracked against a Graph.t oracle,
     with enough inserts on few vertices to force row relocations *)
  let rng = Prng.create 42 in
  let n = 30 in
  let g = Generators.path n in
  let fx = Flexcsr.of_graph g in
  for _step = 1 to 400 do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then
      if Graph.mem_edge g u v then begin
        Graph.remove_edge g u v;
        Flexcsr.remove_edge fx u v
      end
      else begin
        Graph.add_edge g u v;
        Flexcsr.add_edge fx u v
      end
  done;
  check_true "oracle equal" (Graph.equal g (Flexcsr.to_graph fx));
  check_int "m" (Graph.m g) (Flexcsr.m fx);
  for v = 0 to n - 1 do
    let row = Flexcsr.neighbors fx v in
    let sorted = Array.copy row in
    Array.sort compare sorted;
    check_true "row sorted" (row = sorted);
    check_true "row matches" (row = Graph.neighbors g v)
  done

let test_flexcsr_hub_relocation () =
  (* vertex 0 grows from degree 1 to n-1: many relocations *)
  let n = 64 in
  let g = Generators.path n in
  let fx = Flexcsr.of_graph g in
  for v = 2 to n - 1 do
    if not (Flexcsr.mem_edge fx 0 v) then Flexcsr.add_edge fx 0 v
  done;
  check_int "hub degree" (n - 1) (Flexcsr.degree fx 0);
  for v = 1 to n - 1 do
    check_true "hub edge" (Flexcsr.mem_edge fx 0 v)
  done

let test_flexcsr_bfs_kernels () =
  for seed = 1 to 20 do
    let n = 8 + (seed mod 17) in
    let g = connected_graph seed n (n + (seed mod n)) in
    let fx = Flexcsr.of_graph g in
    let dist = Array.make n (-1) and queue = Array.make n 0 in
    let v = seed mod n in
    (* plain BFS vs Csr oracle *)
    let csr = Csr.of_graph g in
    let od = Array.make n (-1) and oq = Array.make n 0 in
    ignore (Csr.bfs_into csr v ~dist:od ~queue:oq);
    let r, s, e = Flexcsr.bfs_stats fx v ~dist ~queue in
    check_true "bfs dist" (dist = od);
    check_true "bfs stats" ((r, s, e) = stats_of_dist od);
    (* delete kernel vs mutate-and-BFS oracle *)
    let row = Graph.neighbors g v in
    if Array.length row > 0 then begin
      let drop = row.(seed mod Array.length row) in
      Graph.remove_edge g v drop;
      ignore (Csr.bfs_into (Csr.of_graph g) v ~dist:od ~queue:oq);
      let got = Flexcsr.bfs_delete_stats fx v ~drop ~dist ~queue in
      check_true "delete dist" (dist = od);
      check_true "delete stats" (got = stats_of_dist od);
      (* swap kernel vs mutate-and-BFS oracle *)
      let add = ref (-1) in
      for x = n - 1 downto 0 do
        if x <> v && x <> drop && not (Graph.mem_edge g v x) then add := x
      done;
      if !add >= 0 then begin
        Graph.add_edge g v !add;
        ignore (Csr.bfs_into (Csr.of_graph g) v ~dist:od ~queue:oq);
        let got = Flexcsr.bfs_swap_stats fx v ~drop ~add:!add ~dist ~queue in
        check_true "swap dist" (dist = od);
        check_true "swap stats" (got = stats_of_dist od)
      end
    end
  done

let test_hop_excess_oracle () =
  (* from every source v of seeded BA (m = 1: a tree, so every drop cuts;
     m = 2), ER and WS graphs: the hop-labelled BFS is bfs_stats, hop(u) =
     w exactly when dropping vw lengthens d(u), and for every drop w,
     d(u) + [hop(u) = w]·excess(u) = min(dd_w(u), 2 + d(u)) with dd_w
     from bfs_delete_stats. The drops are all of v's neighbours, then
     every other one, where a vertex whose first hop is no drop must have
     excess 0. *)
  List.iter
    (fun csr ->
      let fx = Flexcsr.of_csr csr in
      let n = Flexcsr.n fx in
      let dist = Array.make n 0 and hop = Array.make n 0 in
      let queue = Array.make n 0 and excess = Array.make n 0 in
      let od = Array.make n 0 and oq = Array.make n 0 in
      for v = 0 to n - 1 do
        let ((reached, sum, _) as got) = Flexcsr.bfs_hop_stats fx v ~dist ~hop ~queue in
        check_true "hop bfs stats" (got = Flexcsr.bfs_stats fx v ~dist:od ~queue:oq);
        check_true "hop bfs dist" (dist = od);
        let row = Flexcsr.neighbors fx v in
        let dd =
          Array.map
            (fun w ->
              let d = Array.make n 0 in
              ignore (Flexcsr.bfs_delete_stats fx v ~drop:w ~dist:d ~queue:oq);
              d)
            row
        in
        let capped i u = if dd.(i).(u) < 0 then 2 + dist.(u) else min dd.(i).(u) (2 + dist.(u)) in
        let hops_ok = ref true in
        for u = 0 to n - 1 do
          Array.iteri
            (fun i w ->
              if u <> v && (hop.(u) = w) <> (capped i u > dist.(u)) then hops_ok := false)
            row
        done;
        check_true "first hops" !hops_ok;
        List.iter
          (fun keep ->
            let picked = List.filter keep (List.init (Array.length row) Fun.id) in
            let drops = Array.of_list (List.map (fun i -> row.(i)) picked) in
            let sums = Flexcsr.drop_excess fx ~drops ~reached ~dist ~hop ~queue ~excess in
            List.iteri
              (fun k i ->
                let rows_ok = ref true and total = ref 0 in
                for u = 0 to n - 1 do
                  let a = capped i u in
                  total := !total + a;
                  if dist.(u) + (if hop.(u) = row.(i) then excess.(u) else 0) <> a then
                    rows_ok := false
                done;
                check_true "drop row" !rows_ok;
                check_int "drop row sum" !total (sum + sums.(k)))
              picked;
            let others_ok = ref true in
            for u = 0 to n - 1 do
              if (not (Array.mem hop.(u) drops)) && excess.(u) <> 0 then others_ok := false
            done;
            check_true "no excess off the drops" !others_ok)
          [ (fun _ -> true); (fun i -> i mod 2 = 0) ]
      done)
    (List.concat_map
       (fun seed ->
         let n = 100 * seed in
         [
           Scale_gen.ba ~seed ~n ~m:1;
           Scale_gen.ba ~seed ~n ~m:2;
           Scale_gen.er ~seed ~n ~avg_deg:3.0;
           Scale_gen.ws ~seed ~n ~k:2 ~beta:0.1;
         ])
       [ 1; 2; 3 ]);
  (* the drops must be distinct neighbours of the source: from vertex 1 of
     the path 0-1-2-3, neither 3 nor 1 itself is one, and 0 must not
     repeat *)
  let fx = Flexcsr.of_graph (Generators.path 4) in
  let dist = Array.make 4 0 and hop = Array.make 4 0 in
  let queue = Array.make 4 0 and excess = Array.make 4 0 in
  let reached, _, _ = Flexcsr.bfs_hop_stats fx 1 ~dist ~hop ~queue in
  List.iter
    (fun drops ->
      check_true "bad drops rejected"
        (match Flexcsr.drop_excess fx ~drops ~reached ~dist ~hop ~queue ~excess with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ [| 3 |]; [| 0; 0 |]; [| 1 |] ]

(* --- Csr.of_edges ------------------------------------------------------ *)

let test_of_edges_matches_of_graph () =
  for seed = 1 to 15 do
    let n = 6 + (seed mod 20) in
    let g = connected_graph seed n (n + (seed mod n)) in
    let edges = ref [] in
    for v = 0 to n - 1 do
      Array.iter (fun w -> if v < w then edges := (v, w) :: !edges) (Graph.neighbors g v)
    done;
    let edges = Array.of_list !edges in
    check_true "of_edges = of_graph" (Csr.equal (Csr.of_edges ~n edges) (Csr.of_graph g));
    (* duplicates (in both orientations) are dropped *)
    let doubled = Array.append edges (Array.map (fun (u, v) -> (v, u)) edges) in
    check_true "dedup" (Csr.equal (Csr.of_edges ~n doubled) (Csr.of_graph g))
  done

(* --- Bitbfs ------------------------------------------------------------ *)

let test_bitbfs_oracle_200 () =
  (* satellite contract: bit-parallel distances equal the scalar oracle on
     200 seeded random graphs, all sources (chunked past 63) *)
  for seed = 1 to 200 do
    let n = 4 + (seed mod 70) in
    let m = n - 1 + (seed mod (n / 2 + 1)) in
    let g = connected_graph seed n m in
    let csr = Csr.of_graph g in
    let fx = Flexcsr.of_csr csr in
    let sc = Bitbfs.create_scratch n in
    let sources = Array.init n (fun i -> i) in
    let got = Bitbfs.distances sc fx ~sources in
    let oracle = Csr.all_pairs csr in
    check_true "bitbfs distances" (got = oracle)
  done

let test_bitbfs_run_until () =
  (* the one kernel under both entry points: a visit that always expands
     gives run's (vertex, wave, bits) triples in run's order; one that
     expands below wave r gives those up to wave r *)
  for seed = 1 to 200 do
    let n = 4 + (seed mod 70) in
    let m = n - 1 + (seed mod (n / 2 + 1)) in
    let fx = Flexcsr.of_graph (connected_graph seed n m) in
    let sc = Bitbfs.create_scratch n in
    let sources = Array.init (min Bitbfs.max_sources ((n + 2) / 3)) (fun i -> 3 * i) in
    let triples run =
      let out = ref [] in
      run (fun u wave bits -> out := (u, wave, bits) :: !out);
      List.rev !out
    in
    let full = triples (fun f -> Bitbfs.run sc fx ~sources ~visit:f) in
    let until expand =
      triples (fun f ->
          Bitbfs.run_until sc fx ~sources ~visit:(fun u wave bits ->
              f u wave bits;
              expand wave))
    in
    check_true "always expand" (until (fun _ -> true) = full);
    for r = 0 to 3 do
      check_true "expand below wave r"
        (until (fun wave -> wave < r) = List.filter (fun (_, wave, _) -> wave <= r) full)
    done
  done

let test_bitbfs_sample_stats () =
  let g = connected_graph 7 40 60 in
  let csr = Csr.of_graph g in
  let fx = Flexcsr.of_csr csr in
  let sc = Bitbfs.create_scratch 40 in
  let sources = [| 0; 7; 13; 39 |] in
  let stats = Bitbfs.sample_stats sc fx ~sources in
  Array.iteri
    (fun i src ->
      let dist = Array.make 40 (-1) and queue = Array.make 40 0 in
      ignore (Csr.bfs_into csr src ~dist ~queue);
      let r, s, e = stats_of_dist dist in
      check_int "reached" r stats.(i).Bitbfs.reached;
      check_int "sum" s stats.(i).Bitbfs.sum;
      check_int "ecc" e stats.(i).Bitbfs.ecc)
    sources

let test_iter_bits () =
  let collect bits =
    let out = ref [] in
    Bitbfs.iter_bits (fun i -> out := i :: !out) bits;
    List.rev !out
  in
  check_true "empty" (collect 0 = []);
  check_true "low" (collect 1 = [ 0 ]);
  check_true "mixed" (collect ((1 lsl 5) lor (1 lsl 17) lor (1 lsl 62)) = [ 5; 17; 62 ]);
  check_true "all" (List.length (collect (-1)) = 63)

(* --- generators --------------------------------------------------------- *)

let csr_connected csr =
  let n = Csr.n csr in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  n = 0 || Csr.bfs_into csr 0 ~dist ~queue = n

let test_ba_invariants () =
  let n = 3000 and m = 3 in
  let csr = Scale_gen.ba ~seed:11 ~n ~m in
  check_int "n" n (Csr.n csr);
  check_int "edge count" ((n - m) * m) (Csr.m csr);
  check_true "connected" (csr_connected csr);
  let degsum = ref 0 in
  for v = 0 to n - 1 do
    degsum := !degsum + Csr.degree csr v
  done;
  check_int "degree sum" (2 * Csr.m csr) !degsum;
  (* arrivals bring m edges each *)
  for v = m to n - 1 do
    check_true "arrival degree" (Csr.degree csr v >= m)
  done

let test_er_concentration () =
  let n = 20_000 and avg = 6.0 in
  let csr = Scale_gen.er ~seed:3 ~n ~avg_deg:avg in
  let expect = int_of_float (avg *. float_of_int n /. 2.) in
  let slack = expect / 20 in
  check_true "edge count concentrates"
    (abs (Csr.m csr - expect) <= slack);
  check_true "connected" (csr_connected csr)

let test_ws_invariants () =
  let n = 4000 and k = 3 in
  let ring = Scale_gen.ws ~seed:5 ~n ~k ~beta:0.0 in
  check_int "ring edges" (n * k) (Csr.m ring);
  for v = 0 to n - 1 do
    check_int "ring degree" (2 * k) (Csr.degree ring v)
  done;
  check_true "ring connected" (csr_connected ring);
  let rew = Scale_gen.ws ~seed:5 ~n ~k ~beta:0.3 in
  check_true "rewired connected" (csr_connected rew);
  check_true "rewired m bounded" (Csr.m rew <= n * k);
  check_true "rewired m near nk" (Csr.m rew >= (n * k) - (n * k / 10));
  check_false "rewiring changed the graph" (Csr.equal ring rew)

let test_gen_determinism () =
  (* same seed -> byte-identical snapshot; different seed -> different
     snapshot *)
  let n = 5000 in
  let er1 = Scale_gen.er ~seed:9 ~n ~avg_deg:4.0 in
  let ws1 = Scale_gen.ws ~seed:9 ~n ~k:2 ~beta:0.2 in
  let ba1 = Scale_gen.ba ~seed:9 ~n ~m:2 in
  check_true "er repeat" (Csr.equal er1 (Scale_gen.er ~seed:9 ~n ~avg_deg:4.0));
  check_true "ws repeat" (Csr.equal ws1 (Scale_gen.ws ~seed:9 ~n ~k:2 ~beta:0.2));
  check_true "ba repeat" (Csr.equal ba1 (Scale_gen.ba ~seed:9 ~n ~m:2));
  check_false "er seed moves" (Csr.equal er1 (Scale_gen.er ~seed:10 ~n ~avg_deg:4.0))

(* --- engine differential ------------------------------------------------ *)

let scale_cfg_of version budget max_rounds =
  {
    (Scale_dynamics.default_config version) with
    Scale_dynamics.budget;
    probes_per_round = 0;
    max_rounds;
    confirm = Scale_dynamics.Exact_scan;
    trajectory_sources = 0;
    record_trace = true;
  }

let run_both ?(max_rounds = 50) version budget seed g =
  let exact_cfg =
    {
      (Dynamics.default_config version) with
      Dynamics.rule = Dynamics.Sampled budget;
      schedule = Dynamics.Random_agent;
      max_rounds;
      record_trace = true;
    }
  in
  let r1 = Dynamics.run ~rng:(Prng.create seed) exact_cfg g in
  let r2 =
    Scale_dynamics.run
      ~rng:(Prng.create seed)
      (scale_cfg_of version budget max_rounds)
      (Csr.of_graph g)
  in
  (r1, r2)

let check_differential ?max_rounds version budget seed g =
  let r1, r2 = run_both ?max_rounds version budget seed g in
  check_true "outcome" (r1.Dynamics.outcome = r2.Scale_dynamics.outcome);
  check_int "rounds" r1.Dynamics.rounds r2.Scale_dynamics.rounds;
  check_int "moves" r1.Dynamics.moves r2.Scale_dynamics.moves;
  let t1 = List.map (fun s -> (s.Dynamics.move, s.Dynamics.delta)) r1.Dynamics.trace in
  check_true "trace byte-identical" (t1 = r2.Scale_dynamics.trace);
  check_true "final graph equal"
    (Graph.equal r1.Dynamics.final (Flexcsr.to_graph r2.Scale_dynamics.final));
  check_int "final m" (Graph.m r1.Dynamics.final) r2.Scale_dynamics.final_m

let test_differential_sum () =
  (* the satellite anchor: at small n the sampled scale engine replays
     Dynamics (Sampled, Random_agent) move-for-move *)
  for seed = 1 to 25 do
    let n = 5 + (seed mod 6) in
    let g = connected_graph seed n (n - 1 + (seed mod n)) in
    check_differential Game.Sum (1 + (seed mod 8)) seed g
  done

let test_differential_max () =
  for seed = 1 to 25 do
    let n = 5 + (seed mod 6) in
    let g = connected_graph (100 + seed) n (n - 1 + (seed mod n)) in
    check_differential Game.Max (1 + (seed mod 8)) seed g
  done

let test_differential_larger_budget () =
  (* budget past the candidate space: every probe examines (multisets of)
     all moves; certification has to stay sound under deep cutoffs *)
  for seed = 1 to 8 do
    let g = connected_graph (200 + seed) 8 10 in
    check_differential Game.Sum 64 seed g
  done

(* [traced metrics f] runs [f] with telemetry on and returns how much
   each of [metrics] rose meanwhile. *)
let traced metrics f =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let before = List.map (fun get -> get ()) metrics in
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) (fun () -> ignore (f ()));
  List.map2 (fun get b -> get () - b) metrics before

let counter name () = Telemetry.counter_value (Telemetry.counter name)

let span_calls name () = Telemetry.span_count (Telemetry.span name)

let test_differential_multi_batch () =
  (* budget 100 at n = 150 gives most probes more than Bitbfs.max_sources
     distinct adds, so the bound runs a second batch with its own slot
     masks. The skip/evaluation split is pinned: a weaker or a tighter
     bound fails here even when the moves do not change. *)
  List.iter
    (fun (seed, skips, evals) ->
      let g = Csr.to_graph (Scale_gen.ba ~seed ~n:150 ~m:2) in
      match
        traced
          [
            counter "scale.dynamics.probes";
            counter "scale.bitbfs.runs";
            counter "scale.dynamics.certified_skips";
            counter "scale.dynamics.exact_evals";
          ]
          (fun () -> check_differential ~max_rounds:2 Game.Sum 100 seed g)
      with
      | [ probes; runs; certified; exact ] ->
        check_true "second batches ran" (runs > probes);
        check_int "certified skips" skips certified;
        check_int "exact evaluations" evals exact
      | _ -> assert false)
    [ (1, 28169, 740); (2, 28194, 611); (3, 28206, 697); (4, 28095, 719) ]

let test_differential_bridges () =
  (* the multi-batch run on sparser graphs: every edge of a BA m = 1 tree
     is a bridge, so each drop cuts a side off the actor (excess 2), and
     WS k = 2 mixes bridges into a lattice. Moves, skips and evaluations
     are pinned as in the BA m = 2 case above. *)
  List.iter
    (fun (gen, pins) ->
      List.iter
        (fun (seed, moves, skips, evals) ->
          let g = Csr.to_graph (gen seed) in
          match
            traced
              [
                counter "scale.dynamics.probes";
                counter "scale.bitbfs.runs";
                counter "scale.dynamics.moves";
                counter "scale.dynamics.certified_skips";
                counter "scale.dynamics.exact_evals";
              ]
              (fun () -> check_differential ~max_rounds:2 Game.Sum 100 seed g)
          with
          | [ probes; runs; moved; certified; exact ] ->
            check_true "second batches ran" (runs > probes);
            check_int "moves" moves moved;
            check_int "certified skips" skips certified;
            check_int "exact evaluations" evals exact
          | _ -> assert false)
        pins)
    [
      ( (fun seed -> Scale_gen.ba ~seed ~n:150 ~m:1),
        [
          (1, 133, 27997, 1195);
          (2, 152, 27554, 1509);
          (3, 122, 27478, 1621);
          (4, 131, 27303, 1743);
        ] );
      ( (fun seed -> Scale_gen.ws ~seed ~n:150 ~k:2 ~beta:0.1),
        [
          (1, 271, 27736, 1016);
          (2, 264, 27768, 1065);
          (3, 277, 27720, 1062);
          (4, 266, 27819, 1032);
        ] );
    ]

let test_spans () =
  (* the bound span times the drop rows and the batches of every sum
     probe that has a candidate; the exact span times each exact
     evaluation. Max probes evaluate exactly and have no bound. *)
  let csr = Scale_gen.ba ~seed:5 ~n:300 ~m:2 in
  let run game =
    let cfg =
      {
        (Scale_dynamics.default_config game) with
        Scale_dynamics.budget = 8;
        probes_per_round = 32;
        max_rounds = 2;
        confirm = Scale_dynamics.Quiescence max_int;
        trajectory_sources = 0;
      }
    in
    match
      traced
        [
          span_calls "scale.dynamics.bound";
          span_calls "scale.dynamics.exact";
          counter "scale.dynamics.exact_evals";
        ]
        (fun () -> Scale_dynamics.run ~rng:(Prng.create 5) cfg csr)
    with
    | [ bound; exact; evals ] -> (bound, exact, evals)
    | _ -> assert false
  in
  let bound, exact, evals = run Game.Sum in
  check_true "sum: bound calls" (bound > 0);
  check_true "sum: exact calls" (exact > 0);
  check_int "sum: one exact call per evaluation" evals exact;
  let bound, exact, evals = run Game.Max in
  check_int "max: no bound calls" 0 bound;
  check_true "max: exact calls" (exact > 0);
  check_int "max: one exact call per evaluation" evals exact

(* --- quiescence / trajectory / cycle machinery -------------------------- *)

let test_quiescence_run () =
  let csr = Scale_gen.ba ~seed:4 ~n:400 ~m:2 in
  let cfg =
    {
      (Scale_dynamics.default_config Game.Sum) with
      Scale_dynamics.budget = 8;
      probes_per_round = 64;
      max_rounds = 150;
      confirm = Scale_dynamics.Quiescence 128;
      trajectory_every = 10;
      trajectory_sources = 16;
    }
  in
  let r = Scale_dynamics.run ~rng:(Prng.substream 4 (-1)) cfg csr in
  check_true "bounded outcome"
    (r.Scale_dynamics.outcome = Dynamics.Converged
    || r.Scale_dynamics.outcome = Dynamics.Round_limit
    || r.Scale_dynamics.outcome = Dynamics.Cycled);
  if r.Scale_dynamics.outcome = Dynamics.Converged then
    check_true "sampled verdict flagged" r.Scale_dynamics.sampled_verdict;
  let rounds = List.map (fun s -> s.Scale_dynamics.s_round) r.Scale_dynamics.trajectory in
  check_true "trajectory nonempty" (rounds <> []);
  check_true "trajectory chronological" (List.sort compare rounds = rounds);
  check_true "trajectory has start" (List.hd rounds = 0);
  (* swaps preserve m; sum dynamics never deletes *)
  check_int "m preserved" (Csr.m csr) r.Scale_dynamics.final_m;
  check_int "no deletions" 0 r.Scale_dynamics.deletions

let test_scale_run_deterministic () =
  let csr = Scale_gen.ba ~seed:8 ~n:300 ~m:2 in
  let cfg =
    {
      (Scale_dynamics.default_config Game.Sum) with
      Scale_dynamics.budget = 6;
      probes_per_round = 32;
      max_rounds = 20;
      confirm = Scale_dynamics.Quiescence 1000;
      record_trace = true;
    }
  in
  let r1 = Scale_dynamics.run ~rng:(Prng.substream 8 (-1)) cfg csr in
  let r2 = Scale_dynamics.run ~rng:(Prng.substream 8 (-1)) cfg csr in
  check_true "same trace" (r1.Scale_dynamics.trace = r2.Scale_dynamics.trace);
  check_int "same moves" r1.Scale_dynamics.moves r2.Scale_dynamics.moves

let suite =
  [
    case "flexcsr roundtrip" test_flexcsr_roundtrip;
    case "flexcsr mutation oracle" test_flexcsr_mutation_oracle;
    case "flexcsr hub relocation" test_flexcsr_hub_relocation;
    case "flexcsr bfs kernels" test_flexcsr_bfs_kernels;
    case "flexcsr first hops and drop excess" test_hop_excess_oracle;
    case "csr of_edges" test_of_edges_matches_of_graph;
    slow_case "bitbfs oracle x200" test_bitbfs_oracle_200;
    case "bitbfs run_until vs run x200" test_bitbfs_run_until;
    case "bitbfs sample stats" test_bitbfs_sample_stats;
    case "iter_bits" test_iter_bits;
    case "ba invariants" test_ba_invariants;
    slow_case "er concentration" test_er_concentration;
    case "ws invariants" test_ws_invariants;
    slow_case "generator determinism" test_gen_determinism;
    slow_case "differential vs Dynamics (sum)" test_differential_sum;
    slow_case "differential vs Dynamics (max)" test_differential_max;
    slow_case "differential, saturating budget" test_differential_larger_budget;
    case "quiescence run" test_quiescence_run;
    case "scale run deterministic" test_scale_run_deterministic;
    slow_case "differential, multi-batch bound (n = 150, budget 100)"
      test_differential_multi_batch;
    case "multi-batch differential on bridges (BA m = 1, WS k = 2)"
      test_differential_bridges;
    case "bound and exact spans" test_spans;
  ]
