(* scale-ba: sampled best-response dynamics on a Barabási–Albert graph.

   Why: the large-n engine's rounds are carried by certified bounds,
   bit-parallel BFS batches (Bitbfs) and mutation-free swap BFS (Flexcsr);
   none of the serve or census layers run here. Every repetition replays
   the same run from the same generated graph. *)

type spec = { n : int; rounds : int; probes : int; budget : int }

let spec (cfg : Workload.cfg) =
  if cfg.toy then { n = 2_000; rounds = 1; probes = 8; budget = 16 }
  else { n = 20_000; rounds = 2; probes = 32; budget = 16 }

let generate (cfg : Workload.cfg) = Scale_gen.ba ~seed:cfg.seed ~n:(spec cfg).n ~m:2

let config (cfg : Workload.cfg) s =
  {
    (Scale_dynamics.default_config Game.Sum) with
    Scale_dynamics.budget = s.budget;
    probes_per_round = s.probes;
    max_rounds = s.rounds;
    confirm = Scale_dynamics.Quiescence max_int;
    trajectory_sources = 32;
    traj_seed = cfg.seed;
    record_trace = true;
  }

let dynamics cfg s csr =
  Scale_dynamics.run ~rng:(Prng.substream cfg.Workload.seed (-1)) (config cfg s) csr

(* (moves, final m, final diameter lower bound) *)
let summary (r : Scale_dynamics.result) =
  let last = List.nth r.trajectory (List.length r.trajectory - 1) in
  (r.moves, r.final_m, last.Scale_dynamics.s_diameter_lb)

(* Committed results for the default seed. *)
let committed ~toy ~seed =
  match (toy, seed) with
  | false, 1 -> Some (62, 39_996, 9)
  | true, 1 -> Some (6, 3_996, 7)
  | _ -> None

(* Independent check of one run, using only the naive swap oracle and
   plain BFS over Graph.t: every move applies and has the claimed
   negative delta, replaying them reproduces the final graph, and the
   final diameter bound is the largest eccentricity of the engine's
   sample sources. *)
let verify cfg csr (r : Scale_dynamics.result) =
  let g = Csr.to_graph csr in
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  List.iter
    (fun (mv, d) ->
      if not (Swap.is_applicable g mv) then
        problem ("move does not apply: " ^ Swap.move_to_string mv)
      else begin
        let d' = Swap.delta ws Usage_cost.Sum g mv in
        if d' <> d || d >= 0 then
          problem
            (Printf.sprintf "move %s: delta %d, oracle says %d" (Swap.move_to_string mv) d d');
        Swap.apply g mv
      end)
    r.trace;
  if List.length r.trace <> r.moves then problem "trace length differs from moves";
  if not (Graph.equal g (Flexcsr.to_graph r.final)) then
    problem "replayed moves do not give the final graph";
  if r.final_m <> Csr.m csr then problem "a sum-game swap run changed m";
  let last = List.nth r.trajectory (List.length r.trajectory - 1) in
  let srng = Prng.substream cfg.Workload.seed (-2 - last.Scale_dynamics.s_round) in
  let sources = Prng.sample_distinct srng ~n ~k:(min 32 n) in
  let lb =
    Array.fold_left
      (fun acc s ->
        Bfs.run ws g s;
        max acc (Bfs.ecc ws))
      0 sources
  in
  if lb <> last.s_diameter_lb then
    problem (Printf.sprintf "diameter bound %d, BFS says %d" last.s_diameter_lb lb);
  (match committed ~toy:cfg.toy ~seed:cfg.seed with
  | Some c when c <> summary r ->
    let m, fm, d = summary r in
    problem (Printf.sprintf "moves %d, m %d, diameter bound %d differ from committed" m fm d)
  | _ -> ());
  List.iter (fun p -> Printf.eprintf "scale-ba: %s\n%!" p) (List.rev !problems);
  !problems = []

(* Per-call costs of the engine's kernels on the run's final graph. *)
type costs = { bfs : float; swap : float; batch : float; traj : float }

let calibrate cfg fx =
  let n = Flexcsr.n fx in
  let rng = Prng.substream cfg.Workload.seed (-7) in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  let med k f = Stats.median (Array.init k (fun _ -> fst (Measure.timed f))) in
  let vertex () = Prng.int rng n in
  let bfs = med 32 (fun () -> ignore (Flexcsr.bfs_stats fx (vertex ()) ~dist ~queue)) in
  let rec swap_args () =
    let v = vertex () and add = vertex () in
    if add = v || Flexcsr.mem_edge fx v add || Flexcsr.degree fx v = 0 then swap_args ()
    else (v, (Flexcsr.neighbors fx v).(0), add)
  in
  let swap =
    med 32 (fun () ->
        let v, drop, add = swap_args () in
        ignore (Flexcsr.bfs_swap_stats fx v ~drop ~add ~dist ~queue))
  in
  let bsc = Bitbfs.create_scratch n in
  let sources k = Prng.sample_distinct rng ~n ~k:(min k n) in
  let batch =
    med 8 (fun () -> Bitbfs.run bsc fx ~sources:(sources 16) ~visit:(fun _ _ _ -> ()))
  in
  let traj = med 4 (fun () -> ignore (Bitbfs.sample_stats bsc fx ~sources:(sources 32))) in
  { bfs; swap; batch; traj }

let name = "scale-ba"

let run (cfg : Workload.cfg) =
  let s = spec cfg in
  let w = name in
  let probe, setup = Workload.setup_probe cfg name in
  let csr = generate cfg in
  let failed = ref 0 and attempted = ref 0 in
  (* the first run is checked by the oracle and kept; every later run
     must repeat its summary *)
  let first = ref None in
  let check r =
    incr attempted;
    let ok =
      match !first with
      | None ->
        first := Some r;
        verify cfg csr r
      | Some f -> summary r = summary f
    in
    if not ok then incr failed
  in
  let op_s =
    Measure.repeat_for ~seconds:(Workload.window cfg)
      ~check:(fun r ->
        check r;
        probe ())
      (fun () -> dynamics cfg s csr)
  in
  let first = Option.get !first in
  let rows =
    Workload.e2e_rows w ~setup:(setup ()) ~op_s ~wall:(Workload.sum op_s)
      ~rss_mb:(Measure.peak_rss_mb "self")
  in
  let layer_rows =
    if not cfg.trace then []
    else begin
      let gens = Measure.setup_times (fun () -> fst (Measure.timed (fun () -> generate cfg))) in
      let counters =
        List.map Telemetry.counter
          [
            "scale.dynamics.exact_evals";
            "scale.dynamics.certified_skips";
            "scale.dynamics.bfs_runs";
            "scale.bitbfs.runs";
          ]
      in
      Telemetry.set_enabled true;
      let before = List.map Telemetry.counter_value counters in
      let traced_s = Measure.repeat_for ~seconds:(Workload.window cfg) ~check (fun () -> dynamics cfg s csr) in
      let k = Array.length traced_s in
      let per_rep =
        List.map2 (fun c b -> (Telemetry.counter_value c - b) / k) counters before
      in
      Telemetry.set_enabled false;
      let exact, certified, bfs_runs, bit_runs =
        match per_rep with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
      in
      let samples = List.length first.Scale_dynamics.trajectory in
      let c = calibrate cfg first.final in
      let total = Stats.mean traced_s in
      let fi = float_of_int in
      let swap_s = fi exact *. c.swap in
      let bfs_s = fi (bfs_runs - exact) *. c.bfs in
      let batch_s = fi (bit_runs - samples) *. c.batch in
      let traj_s = fi samples *. c.traj in
      let covered = swap_s +. bfs_s +. batch_s +. traj_s in
      let computed = Rows.v ~kind:Rows.Computed ~samples:k w in
      [
        Rows.v ~samples:(Array.length gens) w "scale_gen.ba_s" (Stats.median gens);
        computed "flexcsr.bfs_swap_s" swap_s;
        computed "flexcsr.bfs_s" bfs_s;
        computed "bitbfs.batch_s" batch_s;
        computed "scale.trajectory_s" traj_s;
        Rows.v ~kind:Rows.Residual ~samples:k w "scale.other_s" (total -. covered);
        Rows.count w "scale.exact_evals" exact;
        Rows.count w "scale.certified_skips" certified;
        Rows.ratio w "scale.certified_skip_ratio" ~num:certified ~den:(certified + exact);
      ]
      @ Workload.trace_rows w ~samples:k ~covered ~traced:total
          ~untraced_p50:(Stats.median op_s) ~traced_p50:(Stats.median traced_s)
    end
  in
  { Workload.attempted = !attempted; failed = !failed; rows = rows @ layer_rows }

let workload =
  {
    Workload.name;
    size =
      (fun cfg ->
        let s = spec cfg in
        Printf.sprintf "BA n=%d m=2, sum game, %d rounds x %d probes, budget %d" s.n
          s.rounds s.probes s.budget);
    ready = (fun cfg -> ignore (generate cfg));
    run;
  }
