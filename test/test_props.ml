open Test_helpers

(* Property-based differential tests: each invariant runs [iters] seeded
   deterministic random instances (seed = base + iteration index), so a
   failure report pinpoints a reproducible case. *)

let iters = 200

let fail_at prop i msg =
  Alcotest.fail (Printf.sprintf "%s (case %d): %s" prop i msg)

(* ---- (a) Swap.apply / undo round-trips the adjacency exactly ---- *)

let test_swap_roundtrip () =
  for i = 0 to iters - 1 do
    let rng = Prng.create (0x5A40 + i) in
    let n = Prng.int_in_range rng ~lo:4 ~hi:12 in
    let max_m = n * (n - 1) / 2 in
    (* cap below max_m so at least one non-edge exists to swap onto *)
    let m = Prng.int_in_range rng ~lo:(n - 1) ~hi:(max_m - 1) in
    let g = Random_graphs.connected_gnm rng n m in
    let reference = Graph.copy g in
    let non_edges = Array.of_list (Graph.complement_edges g) in
    let u, w = non_edges.(Prng.int rng (Array.length non_edges)) in
    (* connected with n >= 2, so the actor has a neighbor to drop *)
    let nbrs = Graph.neighbors g u in
    let drop = nbrs.(Prng.int rng (Array.length nbrs)) in
    let mv = Swap.Swap { actor = u; drop; add = w } in
    if not (Swap.is_applicable g mv) then
      fail_at "swap roundtrip" i "generated move not applicable";
    Swap.apply g mv;
    if Graph.equal g reference then
      fail_at "swap roundtrip" i "apply left the graph unchanged";
    if not (Graph.mem_edge g u w) || Graph.mem_edge g u drop then
      fail_at "swap roundtrip" i "apply produced the wrong edge set";
    Swap.undo g mv;
    if not (Graph.equal g reference) then
      fail_at "swap roundtrip" i "apply/undo did not round-trip";
    (* the Delete encoding must round-trip too *)
    let v = nbrs.(Prng.int rng (Array.length nbrs)) in
    let del = Swap.Delete { actor = u; drop = v } in
    Swap.apply g del;
    if Graph.mem_edge g u v then
      fail_at "delete roundtrip" i "apply left the edge present";
    Swap.undo g del;
    if not (Graph.equal g reference) then
      fail_at "delete roundtrip" i "apply/undo did not round-trip"
  done

(* ---- (b) BFS distances against a naive Floyd–Warshall oracle ---- *)

let floyd_warshall g =
  let n = Graph.n g in
  let inf = Bfs.unreachable in
  let d = Array.make_matrix n n inf in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0
  done;
  Graph.iter_edges
    (fun u v ->
      d.(u).(v) <- 1;
      d.(v).(u) <- 1)
    g;
  for k = 0 to n - 1 do
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        (* inf = max_int/4, so inf + inf cannot overflow *)
        if d.(u).(k) + d.(k).(v) < d.(u).(v) then
          d.(u).(v) <- d.(u).(k) + d.(k).(v)
      done
    done
  done;
  d

let test_bfs_vs_floyd_warshall () =
  for i = 0 to iters - 1 do
    let rng = Prng.create (0xBF5 + i) in
    let n = Prng.int_in_range rng ~lo:2 ~hi:32 in
    (* p spans sparse (often disconnected) through dense *)
    let p = Prng.float rng 1.0 in
    let g = Random_graphs.gnp rng n p in
    let oracle = floyd_warshall g in
    for src = 0 to n - 1 do
      let dist = Bfs.distances g src in
      for v = 0 to n - 1 do
        if dist.(v) <> oracle.(src).(v) then
          fail_at "bfs vs floyd-warshall" i
            (Printf.sprintf "d(%d,%d): bfs=%d oracle=%d in %s" src v dist.(v)
               oracle.(src).(v) (Graph.to_string g))
      done
    done
  done

(* ---- (c) diameter = max eccentricity, None on disconnection ---- *)

let test_diameter_vs_eccentricities () =
  for i = 0 to iters - 1 do
    let rng = Prng.create (0xD1A + i) in
    let n = Prng.int_in_range rng ~lo:2 ~hi:24 in
    let p = Prng.float rng 1.0 in
    let g = Random_graphs.gnp rng n p in
    match (Metrics.diameter g, Metrics.eccentricities g) with
    | None, None -> ()
    | Some d, Some eccs ->
      let max_ecc = Array.fold_left max 0 eccs in
      if d <> max_ecc then
        fail_at "diameter vs eccentricities" i
          (Printf.sprintf "diameter=%d max ecc=%d in %s" d max_ecc
             (Graph.to_string g))
    | Some _, None | None, Some _ ->
      fail_at "diameter vs eccentricities" i
        "diameter and eccentricities disagree on connectivity"
  done

(* ---- (d) equilibrium verdicts identical at jobs = 1 and jobs = 4 ---- *)

let verdict_to_string = Format.asprintf "%a" Equilibrium.pp_verdict

let random_instance ?(lo = 4) ?(hi = 10) rng =
  let n = Prng.int_in_range rng ~lo ~hi in
  let t = Random_graphs.tree rng n in
  if Prng.bool rng then t
  else begin
    (* unicyclic: a tree plus one random chord *)
    let non_edges = Array.of_list (Graph.complement_edges t) in
    let u, v = non_edges.(Prng.int rng (Array.length non_edges)) in
    Graph.add_edge t u v;
    t
  end

(* the pool fans out only above 62 vertices, so past the [iters] small
   instances come [large] on n = 63-80 *)
let large = 40

let test_equilibrium_pool_differential () =
  Pool.with_pool ~jobs:1 (fun seq ->
      Pool.with_pool ~jobs:4 (fun par ->
          for i = 0 to iters + large - 1 do
            let rng = Prng.create (0xEC0 + i) in
            let g =
              if i < iters then random_instance rng else random_instance ~lo:63 ~hi:80 rng
            in
            let check name f =
              let a = f ?pool:(Some seq) g in
              let b = f ?pool:(Some par) g in
              if a <> b then
                fail_at name i
                  (Printf.sprintf "jobs=1 %s but jobs=4 %s in %s"
                     (verdict_to_string a) (verdict_to_string b)
                     (Graph.to_string g))
            in
            check "check_sum pool differential" Equilibrium.check_sum;
            check "check_max pool differential" Equilibrium.check_max
          done))

let suite =
  [
    case "swap apply/undo round-trips adjacency" test_swap_roundtrip;
    case "bfs distances match floyd-warshall oracle" test_bfs_vs_floyd_warshall;
    case "diameter equals max eccentricity" test_diameter_vs_eccentricities;
    slow_case "equilibrium verdicts identical across pool sizes"
      test_equilibrium_pool_differential;
  ]
