(* Differential tests: the incremental Swap_eval engine against the naive
   apply/BFS/undo oracle in Swap. The engine is allowed to skip work only
   when a sound bound certifies the answer, so every delta, verdict and
   witness must be byte-identical to the oracle's. *)

open Test_helpers

let iter_agent_moves ~deletions g v f =
  Swap.iter_moves ~include_deletions:deletions g v f

(* The pre-engine equilibrium scan, preserved verbatim as the oracle:
   lowest agent first, moves in enumeration order, deletions violating
   the max version already at delta = 0. *)
let naive_verdict version g =
  if not (Components.is_connected g) then Equilibrium.Disconnected
  else begin
    let n = Graph.n g in
    let ws = Bfs.create_workspace n in
    let witness = ref None in
    (try
       for v = 0 to n - 1 do
         iter_agent_moves ~deletions:(version = Usage_cost.Max) g v (fun mv ->
             let d = Swap.delta ws version g mv in
             let bad =
               match mv with
               | Swap.Swap _ -> d < 0
               | Swap.Delete _ -> d <= 0
             in
             if bad then begin
               witness := Some (mv, d);
               raise Exit
             end)
       done
     with Exit -> ());
    match !witness with
    | Some (mv, d) -> Equilibrium.Violation (mv, d)
    | None -> Equilibrium.Equilibrium
  end

(* The engine's own equilibrium scan, as [Equilibrium.check] runs it
   above 62 vertices: connectivity off vertex 0's cached row, then lowest
   agent first, moves in enumeration order, each priced by
   [Swap_eval.delta_below] with cutoff 0 for swaps and 1 for max
   deletions. *)
let engine_verdict version g =
  let eng = Swap_eval.create g in
  if not (Swap_eval.connected eng) then Equilibrium.Disconnected
  else begin
    let witness = ref None in
    (try
       for v = 0 to Graph.n g - 1 do
         iter_agent_moves ~deletions:(version = Usage_cost.Max) g v (fun mv ->
             let cutoff = match mv with Swap.Swap _ -> 0 | Swap.Delete _ -> 1 in
             match Swap_eval.delta_below eng version mv ~cutoff with
             | Some d ->
               witness := Some (mv, d);
               raise Exit
             | None -> ())
       done
     with Exit -> ());
    match !witness with
    | Some (mv, d) -> Equilibrium.Violation (mv, d)
    | None -> Equilibrium.Equilibrium
  end

(* [~deltas:false] skips the per-move delta checks and
   [~selection:false] the three selection rules. *)
let moves_match ?(deltas = true) ?(selection = true) version g =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let eng = Swap_eval.create g in
  let ok = ref true in
  for v = 0 to n - 1 do
    if deltas then begin
      (* every delta, deletions included *)
      iter_agent_moves ~deletions:true g v (fun mv ->
          if Swap_eval.delta eng version mv <> Swap.delta ws version g mv then
            ok := false);
      (* delta_below agrees with the oracle against an arbitrary cutoff *)
      iter_agent_moves ~deletions:true g v (fun mv ->
          let d = Swap.delta ws version g mv in
          let cutoff = (v mod 3) - 1 in
          match Swap_eval.delta_below eng version mv ~cutoff with
          | Some d' -> if not (d' = d && d < cutoff) then ok := false
          | None -> if d < cutoff then ok := false)
    end;
    if selection then begin
      (* the three selection rules return the oracle's move and delta *)
      if Swap_eval.best_move eng version v <> Swap.best_move ws version g v
      then ok := false;
      if
        Swap_eval.first_improving_move eng version v
        <> Swap.first_improving_move ws version g v
      then ok := false;
      let seed = (17 * (Int64.to_int (Graph.hash g) land 0xffff)) + v in
      let r1 = Swap.random_improving_move (Prng.create seed) ws version g v in
      let r2 =
        Swap_eval.random_improving_move (Prng.create seed) eng version v
      in
      if r1 <> r2 then ok := false
    end
  done;
  !ok

let suite =
  [
    qcheck ~count:160 "sum: deltas and move selection match the naive oracle"
      (gen_connected ~min_n:2 ~max_n:9)
      (moves_match Usage_cost.Sum);
    qcheck ~count:160 "max: deltas and move selection match the naive oracle"
      (gen_connected ~min_n:2 ~max_n:9)
      (moves_match Usage_cost.Max);
    (* on a tree every drop is a bridge, so the row-exact bridge branch
       answers every swap *)
    qcheck ~count:80 "trees, sum: deltas match the naive oracle"
      (gen_tree ~min_n:3 ~max_n:14)
      (moves_match ~selection:false Usage_cost.Sum);
    qcheck ~count:80 "trees, sum: moves match the naive oracle"
      (gen_tree ~min_n:3 ~max_n:14)
      (moves_match ~deltas:false Usage_cost.Sum);
    qcheck ~count:80 "trees, max: deltas match the naive oracle"
      (gen_tree ~min_n:3 ~max_n:14)
      (moves_match ~selection:false Usage_cost.Max);
    qcheck ~count:80 "trees, max: moves match the naive oracle"
      (gen_tree ~min_n:3 ~max_n:14)
      (moves_match ~deltas:false Usage_cost.Max);
    qcheck ~count:120 "verdicts and witnesses match the pre-engine scan"
      (gen_connected ~min_n:2 ~max_n:8)
      (fun g ->
        Equilibrium.check_sum g = naive_verdict Usage_cost.Sum g
        && Equilibrium.check_max g = naive_verdict Usage_cost.Max g
        && engine_verdict Usage_cost.Sum g = naive_verdict Usage_cost.Sum g
        && engine_verdict Usage_cost.Max g = naive_verdict Usage_cost.Max g);
    qcheck ~count:80 "invalidate: engine tracks graph mutation"
      (gen_connected ~min_n:3 ~max_n:8)
      (fun g ->
        let eng = Swap_eval.create g in
        let ws = Bfs.create_workspace (Graph.n g) in
        (* warm the caches, mutate, invalidate, re-compare *)
        let _ = Swap_eval.best_move eng Usage_cost.Sum 0 in
        match Swap.first_improving_move ws Usage_cost.Sum g 0 with
        | None -> true
        | Some (mv, _) ->
          Swap.apply g mv;
          Swap_eval.invalidate eng;
          let ok = moves_match Usage_cost.Sum g in
          Swap.undo g mv;
          ok);
    case "star: every skip settled without per-move BFS" (fun () ->
        let g = Generators.star 9 in
        let eng = Swap_eval.create g in
        Telemetry.set_enabled true;
        Telemetry.reset ();
        let row_exact = Telemetry.counter "swap_eval.row_exact" in
        let fallbacks = Telemetry.counter "swap_eval.bfs_fallbacks" in
        for v = 0 to 8 do
          match Swap_eval.first_improving_move eng Usage_cost.Sum v with
          | Some _ -> Alcotest.fail "the star is a sum equilibrium"
          | None -> ()
        done;
        let e = Telemetry.counter_value row_exact in
        let f = Telemetry.counter_value fallbacks in
        Telemetry.set_enabled false;
        (* star edges are bridges, so the exact bridge path (stronger
           than a bound certificate) answers every candidate *)
        check_true "at least one exact no-BFS skip" (e >= 1);
        check_int "no fallback BFS on the star" 0 f);
    case "torus: bounds certify skips without BFS fallback" (fun () ->
        let g = Constructions.torus 2 in
        Telemetry.set_enabled true;
        Telemetry.reset ();
        let certified = Telemetry.counter "swap_eval.certified" in
        let fallbacks = Telemetry.counter "swap_eval.bfs_fallbacks" in
        check_true "torus 2 is a max equilibrium"
          (engine_verdict Usage_cost.Max g = Equilibrium.Equilibrium);
        let c = Telemetry.counter_value certified in
        let f = Telemetry.counter_value fallbacks in
        Telemetry.set_enabled false;
        check_true "at least one bound-certified skip" (c >= 1);
        check_int "no fallback BFS on the torus" 0 f);
    slow_case "tree scan: <1/3 fallback ratio, >=3x fewer BFS nodes" (fun () ->
        Telemetry.set_enabled true;
        Telemetry.reset ();
        let moves = Telemetry.counter "swap_eval.moves_evaluated" in
        let fallbacks = Telemetry.counter "swap_eval.bfs_fallbacks" in
        let eng_nodes = Telemetry.counter "swap_eval.bfs_nodes" in
        let naive_nodes = Telemetry.counter "bfs.visits" in
        let n = 7 in
        Enumerate.trees n (fun g ->
            match engine_verdict Usage_cost.Sum g with
            | Equilibrium.Disconnected -> Alcotest.fail "tree disconnected"
            | _ -> ());
        let m = Telemetry.counter_value moves in
        let f = Telemetry.counter_value fallbacks in
        (* both passes run the same connectivity pre-check through Bfs,
           so the engine total charges the engine pass's bfs.visits too,
           keeping the two sides in the same units (popped nodes) *)
        let en =
          Telemetry.counter_value eng_nodes + Telemetry.counter_value naive_nodes
        in
        let nn0 = Telemetry.counter_value naive_nodes in
        Enumerate.trees n (fun g -> ignore (naive_verdict Usage_cost.Sum g));
        let nn = Telemetry.counter_value naive_nodes - nn0 in
        Telemetry.set_enabled false;
        check_true "some moves were evaluated" (m > 0);
        check_true
          (Printf.sprintf "fallback ratio %d/%d below 1/3" f m)
          (3 * f < m);
        check_true
          (Printf.sprintf "engine %d vs naive %d BFS nodes: >=3x fewer" en nn)
          (3 * en <= nn));
  ]
