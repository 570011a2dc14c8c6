(* bncg — command-line interface to the basic network creation game library.

   Subcommands: generate, info, check, dynamics, census, experiment. Graphs
   cross the CLI boundary as graph6 strings so results can be piped between
   invocations and into external tools. *)

open Cmdliner

(* --- shared helpers ---------------------------------------------------- *)

let opt_cell = function Some d -> string_of_int d | None -> "inf"

let graph_summary g =
  Printf.printf "n = %d, m = %d\n" (Graph.n g) (Graph.m g);
  Printf.printf "connected: %b\n" (Components.is_connected g);
  Printf.printf "diameter: %s\n" (opt_cell (Metrics.diameter g));
  Printf.printf "radius: %s\n" (opt_cell (Metrics.radius g));
  Printf.printf "girth: %s\n"
    (match Metrics.girth g with Some x -> string_of_int x | None -> "- (forest)");
  Printf.printf "degrees: min %d, max %d\n" (Graph.min_degree g) (Graph.max_degree g);
  (match Metrics.wiener_index g with
  | Some w -> Printf.printf "wiener index: %d (social sum cost %d)\n" w (2 * w)
  | None -> ());
  Printf.printf "graph6: %s\n" (Graph6.encode g)

(* One parser for every --game flag: the same [Game.of_string] the RPC
   wire protocol and the atlas key namespaces go through. *)
let game_conv =
  let parse s = Result.map_error (fun msg -> `Msg msg) (Game.of_string s) in
  Arg.conv (parse, Game.pp)

let graph6_arg =
  let doc = "The graph, as a graph6 string (as printed by $(b,bncg generate))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH6" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel kernels (census sharding, per-agent \
     equilibrium scans). 0 means all available cores; 1 forces the \
     sequential code path."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let game_doc = "Game: sum, max, or alpha:$(i,A) (e.g. alpha:1.5)."
let game_arg = Arg.(value & opt game_conv Game.Sum & info [ "game" ] ~doc:game_doc)
let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"PRNG seed.")

(* 0 = hardware default; every subcommand builds its pool through here so
   the domains are joined on the way out *)
let with_jobs jobs f =
  if jobs < 0 then `Error (false, "--jobs must be >= 0")
  else begin
    let jobs = if jobs = 0 then Pool.available_jobs () else jobs in
    Pool.with_pool ~jobs f
  end

let decode_graph = Graph6.decode_result

(* "unix:PATH" or "tcp:HOST:PORT"; the shared address syntax of
   bncg serve --listen, bncg call --addr and bncg census --workers *)
let parse_address s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" && String.length s > i + 1 ->
    Ok (Serve.Unix_sock (String.sub s (i + 1) (String.length s - i - 1)))
  | Some i when String.sub s 0 i = "tcp" -> (
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.rindex_opt rest ':' with
    | Some j -> (
      let host = String.sub rest 0 j in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub rest (j + 1) (String.length rest - j - 1)) with
      | Some port when port >= 0 && port < 65536 -> Ok (Serve.Tcp (host, port))
      | _ -> Error (`Msg (Printf.sprintf "bad port in %S" s)))
    | None -> Error (`Msg (Printf.sprintf "expected tcp:HOST:PORT, got %S" s)))
  | _ ->
    Error (`Msg (Printf.sprintf "expected unix:PATH or tcp:HOST:PORT, got %S" s))

(* --- telemetry plumbing ------------------------------------------------- *)

let stats_arg =
  let doc =
    "Enable the telemetry layer and print a sorted metric table (counters, \
     gauges, span timers) after the run."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let stats_json_arg =
  let doc =
    "Enable the telemetry layer and write the metrics to $(docv) as a JSON \
     array of {name, kind, value} rows."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

(* fail before the (long) run, not after it *)
let stats_json_writable path =
  match open_out path with
  | oc ->
    close_out oc;
    Ok ()
  | exception Sys_error msg ->
    Error (Printf.sprintf "cannot write --stats-json target: %s" msg)

let with_stats stats stats_json f =
  if not (stats || stats_json <> None) then f ()
  else begin
    let writable =
      match stats_json with Some p -> stats_json_writable p | None -> Ok ()
    in
    match writable with
    | Error msg -> `Error (false, msg)
    | Ok () ->
      Telemetry.reset ();
      Telemetry.set_enabled true;
      let r = f () in
      if stats then Telemetry.print_report ();
      Option.iter Telemetry.write_json stats_json;
      r
  end

(* a library precondition failure (bad -n, budget, ...) is a clean CLI
   error, not an uncaught exception *)
let or_invalid f = try f () with Invalid_argument msg -> `Error (false, msg)

(* --- generate ----------------------------------------------------------- *)

(* a gnm edge target capped at the complete graph, so tiny n (the cap
   binds only below n = 5) still yields a graph *)
let gnm_edges n m = min m (n * (n - 1) / 2)

let generate_families =
  [
    ("star", `Star);
    ("double-star", `Double_star);
    ("path", `Path);
    ("cycle", `Cycle);
    ("complete", `Complete);
    ("hypercube", `Hypercube);
    ("petersen", `Petersen);
    ("torus", `Torus);
    ("torus-d", `Torus_d);
    ("theorem5", `Theorem5);
    ("witness", `Witness);
    ("polarity", `Polarity);
    ("tree", `Tree);
    ("gnm", `Gnm);
  ]

let generate family n k dim seed edges_out =
  or_invalid @@ fun () ->
  let rng = Prng.create seed in
  let need_n what = match n with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "--n is required for %s" what)
  in
  let g =
    match family with
    | `Star -> Generators.star (need_n "star")
    | `Double_star -> Generators.double_star (need_n "double-star") k
    | `Path -> Generators.path (need_n "path")
    | `Cycle -> Generators.cycle (need_n "cycle")
    | `Complete -> Generators.complete (need_n "complete")
    | `Hypercube -> Generators.hypercube (need_n "hypercube")
    | `Petersen -> Generators.petersen ()
    | `Torus -> Constructions.torus k
    | `Torus_d -> Constructions.torus_d ~dim k
    | `Theorem5 -> Constructions.theorem5_graph
    | `Witness -> Constructions.sum_diameter3_witness
    | `Polarity -> Polarity.polarity_graph k
    | `Tree -> Random_graphs.tree rng (need_n "tree")
    | `Gnm ->
      let n = need_n "gnm" in
      Random_graphs.connected_gnm rng n (gnm_edges n (max (n - 1) (2 * n)))
  in
  (match edges_out with
  | `Graph6 -> print_endline (Graph6.encode g)
  | `Edges -> print_string (Graph_io.to_edge_list g)
  | `Dot -> print_string (Graph_io.to_dot g));
  `Ok ()

let generate_cmd =
  let family =
    let doc =
      "Graph family: " ^ String.concat ", " (List.map fst generate_families) ^ "."
    in
    Arg.(
      required
      & pos 0 (some (enum generate_families)) None
      & info [] ~docv:"FAMILY" ~doc)
  in
  let n = Arg.(value & opt (some int) None & info [ "n" ] ~doc:"Vertex count.") in
  let k =
    Arg.(value & opt int 3 & info [ "k" ] ~doc:"Family parameter (torus k, polarity q, double-star second arm, ...).")
  in
  let dim = Arg.(value & opt int 2 & info [ "dim" ] ~doc:"Torus dimension.") in
  let edges =
    Arg.(
      value
      & opt (enum [ ("graph6", `Graph6); ("edges", `Edges); ("dot", `Dot) ]) `Graph6
      & info [ "format" ] ~doc:"Output format: graph6 (default), edges, or dot.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a graph from a named family")
    Term.(ret (const generate $ family $ n $ k $ dim $ seed_arg $ edges))

(* --- info ---------------------------------------------------------------- *)

let info_cmd =
  let run g6 =
    match decode_graph g6 with
    | Error msg -> `Error (false, msg)
    | Ok g ->
      graph_summary g;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print structural metrics of a graph")
    Term.(ret (const run $ graph6_arg))

(* --- check ---------------------------------------------------------------- *)

let check game jobs stats stats_json g6 =
  match decode_graph g6 with
  | Error msg -> `Error (false, msg)
  | Ok g ->
    with_stats stats stats_json @@ fun () ->
    with_jobs jobs @@ fun pool ->
    let verdict = Equilibrium.check ~pool game g in
    Printf.printf "version: %s\n" (Game.to_string game);
    Printf.printf "verdict: %s\n" (Format.asprintf "%a" Equilibrium.pp_verdict verdict);
    Printf.printf "diameter: %s\n" (opt_cell (Metrics.diameter g));
    (match game with
    | Game.Max ->
      Printf.printf "deletion-critical: %b\n" (Equilibrium.is_deletion_critical g);
      Printf.printf "insertion-stable: %b\n" (Equilibrium.is_insertion_stable g);
      (match Equilibrium.eccentricity_spread g with
      | Some s -> Printf.printf "eccentricity spread: %d\n" s
      | None -> ())
    | Game.Sum | Game.Alpha _ -> ());
    `Ok ()

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Check whether a graph is an equilibrium of the chosen game")
    Term.(ret (const check $ game_arg $ jobs_arg $ stats_arg $ stats_json_arg $ graph6_arg))

(* --- dynamics --------------------------------------------------------------- *)

let dynamics_exact game n init seed max_rounds trace =
  let rng = Prng.create seed in
  let g =
    match init with
    | `Tree -> Random_graphs.tree rng n
    | `Gnm -> Random_graphs.connected_gnm rng n (gnm_edges n (2 * n))
    | `Path -> Generators.path n
    | `Cycle -> Generators.cycle n
  in
  let cfg =
    { (Dynamics.default_config game) with Dynamics.max_rounds; record_trace = trace }
  in
  let r = Dynamics.run ~rng cfg g in
  Printf.printf "outcome: %s\n" (Exp_common.outcome_name r.Dynamics.outcome);
  Printf.printf "rounds: %d, moves: %d\n" r.Dynamics.rounds r.Dynamics.moves;
  Printf.printf "final m: %d, diameter: %s\n" (Graph.m r.Dynamics.final)
    (opt_cell (Metrics.diameter r.Dynamics.final));
  let verified = Equilibrium.is_equilibrium game r.Dynamics.final in
  Printf.printf "equilibrium verified: %b\n" verified;
  Printf.printf "final graph6: %s\n" (Graph6.encode r.Dynamics.final);
  if trace then begin
    Printf.printf "\n%-6s %-24s %8s %10s %9s\n" "step" "move" "delta" "social" "diameter";
    List.iter
      (fun s ->
        Printf.printf "%-6d %-24s %8d %10d %9d\n" s.Dynamics.index
          (Swap.move_to_string s.Dynamics.move)
          s.Dynamics.delta s.Dynamics.social s.Dynamics.diameter)
      r.Dynamics.trace
  end;
  `Ok ()

(* The large-n engine: generate a family snapshot straight into CSR, run
   the sampled best-response dynamics over the Flexcsr arena. All
   randomness (generator rows, run stream, trajectory sources) derives
   from --seed through Prng.substream, so runs are reproducible at any -j. *)
let dynamics_scale game n gen seed max_rounds jobs budget probes patience
    exact_confirm window ba_m er_deg ws_k ws_beta traj_every traj_sources trace =
  with_jobs jobs @@ fun pool ->
  let t0 = Unix.gettimeofday () in
  let csr =
    match gen with
    | `Ba -> Scale_gen.ba ~seed ~n ~m:ba_m
    | `Er -> Scale_gen.er ~pool ~seed ~n ~avg_deg:er_deg ()
    | `Ws -> Scale_gen.ws ~pool ~seed ~n ~k:ws_k ~beta:ws_beta ()
  in
  let t_gen = Unix.gettimeofday () -. t0 in
  Printf.printf "generator: %s, n = %d, m = %d (%.2fs)\n"
    (match gen with `Ba -> "ba" | `Er -> "er" | `Ws -> "ws")
    (Csr.n csr) (Csr.m csr) t_gen;
  let cfg =
    {
      (Scale_dynamics.default_config game) with
      Scale_dynamics.budget;
      probes_per_round = probes;
      max_rounds;
      confirm =
        (if exact_confirm then Scale_dynamics.Exact_scan
         else Scale_dynamics.Quiescence patience);
      window;
      trajectory_every = traj_every;
      trajectory_sources = traj_sources;
      traj_seed = seed;
      record_trace = trace;
    }
  in
  let rng = Prng.substream seed (-1) in
  let t1 = Unix.gettimeofday () in
  let r = Scale_dynamics.run ~pool ~rng cfg csr in
  let t_run = Unix.gettimeofday () -. t1 in
  Printf.printf "outcome: %s%s\n"
    (Exp_common.outcome_name r.Scale_dynamics.outcome)
    (if r.Scale_dynamics.sampled_verdict then " (sampled verdict)" else "");
  Printf.printf "rounds: %d, probes: %d, moves: %d (deletions %d)\n"
    r.Scale_dynamics.rounds r.Scale_dynamics.probes r.Scale_dynamics.moves
    r.Scale_dynamics.deletions;
  Printf.printf "final m: %d\n" r.Scale_dynamics.final_m;
  Printf.printf "wall: %.2fs (%.1f ms/round)\n" t_run
    (1000. *. t_run /. float_of_int (max 1 r.Scale_dynamics.rounds));
  if r.Scale_dynamics.trajectory <> [] then begin
    Printf.printf "\n%-8s %-8s %-11s %s\n" "round" "moves" "diameter>=" "mean-dist";
    List.iter
      (fun (s : Scale_dynamics.sample) ->
        Printf.printf "%-8d %-8d %-11d %.3f\n" s.Scale_dynamics.s_round
          s.Scale_dynamics.s_moves s.Scale_dynamics.s_diameter_lb
          s.Scale_dynamics.s_mean_dist)
      r.Scale_dynamics.trajectory
  end;
  if trace then begin
    Printf.printf "\n%-6s %-24s %8s\n" "step" "move" "delta";
    List.iteri
      (fun i (mv, d) ->
        Printf.printf "%-6d %-24s %8d\n" i (Swap.move_to_string mv) d)
      r.Scale_dynamics.trace
  end;
  `Ok ()

let dynamics engine game n init gen seed max_rounds jobs budget probes
    patience exact_confirm window ba_m er_deg ws_k ws_beta traj_every
    traj_sources trace stats stats_json =
  or_invalid @@ fun () ->
  with_stats stats stats_json @@ fun () ->
  match engine with
  | `Exact ->
    let max_rounds = if max_rounds = 0 then 10_000 else max_rounds in
    dynamics_exact game n init seed max_rounds trace
  | `Scale when not (Game.is_basic game) ->
    `Error
      ( false,
        Printf.sprintf
          "--engine scale supports only the basic games (sum, max); got %s \
           (use --engine exact)"
          (Game.to_string game) )
  | `Scale ->
    (* one round = --probes sampled probes; at n = 10^6 a round of 32
       probes is ~2 minutes on one core, so the default keeps the bare
       command under an hour *)
    let max_rounds = if max_rounds = 0 then 24 else max_rounds in
    dynamics_scale game n gen seed max_rounds jobs budget probes patience
      exact_confirm window ba_m er_deg ws_k ws_beta traj_every traj_sources
      trace

let dynamics_cmd =
  let engine =
    Arg.(
      value
      & opt (enum [ ("exact", `Exact); ("scale", `Scale) ]) `Exact
      & info [ "engine" ]
          ~doc:
            "exact: full candidate scans over Graph.t (small n). scale: \
             sampled probes over a CSR arena with certified candidate \
             bounds (n up to 10^6).")
  in
  let n = Arg.(value & opt int 24 & info [ "n" ] ~doc:"Number of agents.") in
  let init =
    Arg.(
      value
      & opt (enum [ ("tree", `Tree); ("gnm", `Gnm); ("path", `Path); ("cycle", `Cycle) ]) `Tree
      & info [ "init" ] ~doc:"Initial network for --engine exact: tree, gnm, path, cycle.")
  in
  let gen =
    Arg.(
      value
      & opt (enum [ ("ba", `Ba); ("er", `Er); ("ws", `Ws) ]) `Ba
      & info [ "gen" ]
          ~doc:
            "Initial network for --engine scale: ba (preferential \
             attachment), er (Erdos-Renyi), ws (Watts-Strogatz).")
  in
  let rounds =
    Arg.(
      value & opt int 0
      & info [ "max-rounds" ]
          ~doc:"Round cap; 0 means the engine default (exact 10000, scale 24).")
  in
  let budget =
    Arg.(
      value & opt int 16
      & info [ "budget" ] ~doc:"Scale engine: sampled candidate swaps per probe.")
  in
  let probes =
    Arg.(
      value & opt int 32
      & info [ "probes" ] ~doc:"Scale engine: probes per round (0 means n).")
  in
  let patience =
    Arg.(
      value & opt int 512
      & info [ "patience" ]
          ~doc:
            "Scale engine: consecutive unimproving probes before declaring \
             (sampled) convergence.")
  in
  let exact_confirm =
    Arg.(
      value & flag
      & info [ "exact-confirm" ]
          ~doc:
            "Scale engine: confirm quiet rounds with the full exact scan \
             instead of quiescence patience (equilibrium certificate; only \
             affordable at small n).")
  in
  let window =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "window" ] ~doc:"Scale engine: recent states kept for cycle detection.")
  in
  let ba_m =
    Arg.(value & opt int 2 & info [ "ba-m" ] ~doc:"ba generator: edges per arriving vertex.")
  in
  let er_deg =
    Arg.(value & opt float 4.0 & info [ "er-deg" ] ~doc:"er generator: expected average degree.")
  in
  let ws_k =
    Arg.(value & opt int 2 & info [ "ws-k" ] ~doc:"ws generator: clockwise lattice links per vertex.")
  in
  let ws_beta =
    Arg.(value & opt float 0.1 & info [ "ws-beta" ] ~doc:"ws generator: rewiring probability.")
  in
  let traj_every =
    Arg.(
      value & opt int 8
      & info [ "traj-every" ]
          ~doc:"Scale engine: sample the diameter trajectory every this many rounds (0: start/end only).")
  in
  let traj_sources =
    Arg.(
      value & opt int 32
      & info [ "traj-sources" ] ~doc:"Scale engine: BFS sources per trajectory sample (0 disables).")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the move-by-move trace.") in
  Cmd.v
    (Cmd.info "dynamics" ~doc:"Run best-response swap dynamics to equilibrium")
    Term.(
      ret
        (const dynamics $ engine $ game_arg $ n $ init $ gen $ seed_arg $ rounds
       $ jobs_arg $ budget $ probes $ patience $ exact_confirm $ window $ ba_m
       $ er_deg $ ws_k $ ws_beta $ traj_every $ traj_sources $ trace
       $ stats_arg $ stats_json_arg))

(* --- census --------------------------------------------------------------- *)

(* shared by the in-process and the distributed paths, so the
   distributed run's stdout is byte-identical to the sequential one
   (CI diffs them; dispatch accounting goes to stderr) *)
let print_tree_census (c : Census.tree_census) =
  Printf.printf "labeled trees: %d\n" c.Census.total;
  Printf.printf "equilibria: %d (stars %d, double stars %d)\n" c.Census.equilibria
    c.Census.stars c.Census.double_stars;
  Printf.printf "max equilibrium diameter: %d\n" c.Census.max_eq_diameter

let print_graph_census (c : Census.graph_census) =
  Printf.printf "connected graphs: %d\n" c.Census.connected;
  Printf.printf "equilibria: %d labeled, %d up to isomorphism\n"
    c.Census.equilibria_labeled
    (List.length c.Census.equilibria_iso);
  Printf.printf "diameter histogram: %s\n"
    (String.concat ", "
       (List.map
          (fun (d, k) -> Printf.sprintf "%d -> %d" d k)
          c.Census.diameter_histogram));
  List.iter
    (fun g -> Printf.printf "  representative: %s\n" (Graph6.encode g))
    c.Census.equilibria_iso

let print_census = function
  | Census.Tree_result c -> print_tree_census c
  | Census.Graph_result c | Census.Orderly_result c -> print_graph_census c

let census game n trees jobs workers parts retries timeout journal atlas_dir
    stats stats_json =
  or_invalid @@ fun () ->
  with_stats stats stats_json @@ fun () ->
  let kind = if trees then Census.Trees else Census.graph_kind game in
  let shard = Census.full_shard kind game n in
  let atlas =
    match atlas_dir with
    | None -> None
    | Some dir -> (
      match Atlas.open_ dir with
      | Ok a -> Some a
      | Error msg -> invalid_arg ("atlas: " ^ msg))
  in
  (* atlas accounting goes to stderr, like the dispatch accounting: the
     census on stdout stays byte-identical with and without the atlas *)
  let finish () =
    Option.iter
      (fun a ->
        let s = Atlas.stats a in
        Printf.eprintf "atlas: %d hits, %d misses, %d appended, %d duplicates\n"
          s.Atlas.hits s.Atlas.misses s.Atlas.appended s.Atlas.duplicates;
        Atlas.close a)
      atlas
  in
  Fun.protect ~finally:finish @@ fun () ->
  if workers = [] then
    with_jobs jobs @@ fun pool ->
    print_census (Census.run_shard ?atlas ~pool shard);
    `Ok ()
  else begin
    let workers =
      List.mapi
        (fun i -> function
          | `Local -> Dispatch.Local (Printf.sprintf "local-%d" i)
          | `Remote addr -> Dispatch.Remote addr)
        workers
    in
    let cfg =
      {
        Dispatch.default_config with
        Dispatch.workers;
        parts;
        max_attempts = retries;
        timeout;
        journal;
        atlas;
      }
    in
    match Dispatch.run cfg shard with
    | Error msg -> `Error (false, msg)
    | Ok (result, st) ->
      print_census result;
      Printf.eprintf
        "dispatch: %d shards, %d journal hits, %d dispatched, %d retried, %d recovered\n"
        st.Dispatch.shards st.Dispatch.journal_hits st.Dispatch.dispatched
        st.Dispatch.retried st.Dispatch.recovered;
      if st.Dispatch.blacklisted <> [] then
        Printf.eprintf "dispatch: blacklisted workers: %s\n"
          (String.concat ", " st.Dispatch.blacklisted);
      `Ok ()
  end

let worker_conv =
  let parse s =
    if String.equal s "local" then Ok `Local
    else
      match parse_address s with
      | Ok addr -> Ok (`Remote addr)
      | Error (`Msg _) ->
        Error
          (`Msg
             (Printf.sprintf
                "expected local, unix:PATH or tcp:HOST:PORT, got %S" s))
  in
  let pp ppf = function
    | `Local -> Format.pp_print_string ppf "local"
    | `Remote addr -> Serve.pp_address ppf addr
  in
  Arg.conv (parse, pp)

let census_cmd =
  let n =
    let doc =
      Printf.sprintf "Vertex count (trees <= %d, sum/max <= %d, alpha <= %d)."
        (Census.max_shard_vertices Census.Trees)
        (Census.max_shard_vertices Census.Orderly)
        (Census.max_shard_vertices Census.Graphs)
    in
    Arg.(value & opt int 5 & info [ "n" ] ~doc)
  in
  let trees = Arg.(value & flag & info [ "trees" ] ~doc:"Census over trees instead of all connected graphs.") in
  let workers =
    let doc =
      "Distribute the census across this worker fleet instead of running \
       in-process: a comma-separated list of $(b,local) (an in-process \
       worker running shards on its own domain), $(b,unix:PATH) or \
       $(b,tcp:HOST:PORT) (a $(b,bncg serve) endpoint). Failed or \
       straggling workers are retried, backed off and blacklisted; the \
       merged census is identical to the in-process one."
    in
    Arg.(value & opt (list worker_conv) [] & info [ "workers" ] ~docv:"W,W,..." ~doc)
  in
  let parts =
    let doc =
      "Number of shards to split the census into (0 means 4 per worker)."
    in
    Arg.(value & opt int 0 & info [ "parts" ] ~docv:"N" ~doc)
  in
  let retries =
    let doc = "Give up after a shard fails this many times across workers." in
    Arg.(
      value
      & opt int Dispatch.default_config.Dispatch.max_attempts
      & info [ "retries" ] ~docv:"N" ~doc)
  in
  let timeout =
    let doc = "Per-shard reply deadline for remote workers, in seconds." in
    Arg.(
      value
      & opt float Dispatch.default_config.Dispatch.timeout
      & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  let journal =
    let doc =
      "Append each completed shard to $(docv); a rerun with the same \
       arguments and journal resumes, recomputing only missing shards."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let atlas =
    let doc =
      "Consult and populate the persistent equilibrium atlas in $(docv) \
       (created if missing): verdicts already in the atlas are reused \
       instead of recomputed, and new verdicts are appended for future \
       runs. The census on stdout is byte-identical with or without the \
       atlas; session accounting (hits/misses/appends) goes to stderr."
    in
    Arg.(value & opt (some string) None & info [ "atlas" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "census" ~doc:"Exhaustively classify equilibria on small vertex counts")
    Term.(
      ret
        (const census $ game_arg $ n $ trees $ jobs_arg $ workers $ parts
        $ retries $ timeout $ journal $ atlas $ stats_arg $ stats_json_arg))

(* --- experiment -------------------------------------------------------------- *)

let experiment id list_only seed =
  Option.iter Exp_common.set_seed_base seed;
  if list_only then begin
    List.iter
      (fun e ->
        Printf.printf "%-4s %-30s %s%s\n" e.Experiments.id e.Experiments.paper_item
          e.Experiments.title
          (if e.Experiments.heavy then " [heavy]" else ""))
      Experiments.all;
    `Ok ()
  end
  else
    match id with
    | None ->
      Experiments.run_default ();
      `Ok ()
    | Some "all" ->
      Experiments.run_default ();
      `Ok ()
    | Some "everything" ->
      Experiments.run_everything ();
      `Ok ()
    | Some id -> (
      match Experiments.find id with
      | Some e ->
        (* run_one honors BNCG_STATS like the bulk runners *)
        Experiments.run_one e;
        `Ok ()
      | None -> `Error (false, Printf.sprintf "unknown experiment %S (try --list)" id))

let experiment_cmd =
  let id =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (E1..E14), 'all', or 'everything'.")
  in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List available experiments.") in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ]
          ~doc:
            "Seed base: experiment tables draw seeds base+1..base+k \
             (default $(b,BNCG_SEED) or 0).")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce the paper's theorem/figure tables")
    Term.(ret (const experiment $ id $ list_only $ seed))

(* --- hunt ---------------------------------------------------------------- *)

let hunt n target_diameter steps seed game stats stats_json =
  or_invalid @@ fun () ->
  with_stats stats stats_json @@ fun () ->
  let rng = Prng.create seed in
  let cfg = { (Hunt.default_config ~game ~n ~target_diameter ()) with Hunt.steps } in
  let r = Hunt.run rng cfg in
  (match r.Hunt.found with
  | Some g ->
    Printf.printf "found a %s equilibrium with diameter >= %d on %d vertices:\n"
      (Game.to_string game) target_diameter n;
    Printf.printf "graph6: %s\n" (Graph6.encode g);
    graph_summary g
  | None ->
    Printf.printf
      "not found (best candidate at target diameter had %d violating agents; %d candidates scored)\n"
      r.Hunt.best_violations r.Hunt.evaluated);
  `Ok ()

let hunt_cmd =
  let n = Arg.(value & opt int 10 & info [ "n" ] ~doc:"Vertex count.") in
  let target = Arg.(value & opt int 3 & info [ "diameter" ] ~doc:"Required minimum diameter.") in
  let steps = Arg.(value & opt int 4000 & info [ "steps" ] ~doc:"Annealing steps per restart.") in
  Cmd.v
    (Cmd.info "hunt" ~doc:"Search for high-diameter equilibria by simulated annealing")
    Term.(
      ret (const hunt $ n $ target $ steps $ seed_arg $ game_arg $ stats_arg $ stats_json_arg))

(* --- audit ---------------------------------------------------------------- *)

let audit g6 =
  match decode_graph g6 with
  | Error msg -> `Error (false, msg)
  | Ok g ->
    let show name = function
      | None -> Printf.printf "%-8s holds\n" name
      | Some v -> Printf.printf "%-8s VIOLATED: %s\n" name v.Lemmas.description
    in
    Printf.printf "lemma audit on n=%d, m=%d:\n" (Graph.n g) (Graph.m g);
    show "lemma 6" (Lemmas.check_lemma6 g);
    show "lemma 7" (Lemmas.check_lemma7 g);
    show "lemma 8" (Lemmas.check_lemma8 g);
    Printf.printf "\ncentrality profile:\n";
    let b = Centrality.betweenness g in
    Printf.printf "  betweenness: max %.2f at vertex %d, spread %.2f\n"
      b.(Centrality.most_central b)
      (Centrality.most_central b) (Centrality.spread b);
    Printf.printf "  fiedler value: %.4f\n" (Spectral.algebraic_connectivity g);
    Printf.printf "  clustering: global %.3f, average %.3f\n"
      (Metrics.global_clustering g) (Metrics.average_clustering g);
    (match Metrics.degree_assortativity g with
    | Some r -> Printf.printf "  degree assortativity: %.3f\n" r
    | None -> Printf.printf "  degree assortativity: degenerate\n");
    `Ok ()

let audit_cmd =
  Cmd.v
    (Cmd.info "audit" ~doc:"Run the lemma audit and structural profile on a graph")
    Term.(ret (const audit $ graph6_arg))

(* --- serve / call --------------------------------------------------------- *)

let address_conv = Arg.conv (parse_address, Serve.pp_address)

let serve listen jobs workers cache shards max_bytes max_vertices slice timeout
    atlas stats stats_json =
  if listen = [] then
    `Error (false, "at least one --listen address is required")
  else
    with_stats stats stats_json @@ fun () ->
    let cfg =
      {
        Serve.addresses = listen;
        jobs;
        workers;
        cache_capacity = cache;
        cache_shards = shards;
        max_request_bytes = max_bytes;
        max_graph_vertices = max_vertices;
        census_slice = slice;
        request_timeout = timeout;
        write_high_water = Serve.default_config.Serve.write_high_water;
        atlas_dir = atlas;
      }
    in
    match
      Serve.run cfg ~on_ready:(fun srv ->
          List.iter
            (fun a -> Printf.printf "listening on %s\n" (Format.asprintf "%a" Serve.pp_address a))
            (Serve.bound_addresses srv);
          print_string "ready\n";
          flush stdout)
    with
    | () -> `Ok ()
    | exception Invalid_argument msg -> `Error (false, msg)
    | exception Unix.Unix_error (e, fn, arg) ->
      `Error (false, Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))

let serve_cmd =
  let listen =
    let doc =
      "Address to listen on: $(b,unix:PATH) or $(b,tcp:HOST:PORT) (port 0 \
       picks an ephemeral port, printed on startup). Repeatable."
    in
    Arg.(value & opt_all address_conv [] & info [ "l"; "listen" ] ~docv:"ADDR" ~doc)
  in
  let workers =
    Arg.(
      value
      & opt int Serve.default_config.Serve.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:"Event-loop worker domains (0 = all available cores).")
  in
  let cache =
    Arg.(
      value
      & opt int Serve.default_config.Serve.cache_capacity
      & info [ "cache" ] ~docv:"N" ~doc:"Result-cache capacity (entries).")
  in
  let shards =
    Arg.(
      value
      & opt int Serve.default_config.Serve.cache_shards
      & info [ "cache-shards" ] ~docv:"N"
          ~doc:"Result-cache shard count (0 = default).")
  in
  let max_bytes =
    Arg.(
      value
      & opt int Serve.default_config.Serve.max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"N" ~doc:"Reject request lines longer than $(docv).")
  in
  let max_vertices =
    Arg.(
      value
      & opt int Serve.default_config.Serve.max_graph_vertices
      & info [ "max-vertices" ] ~docv:"N" ~doc:"Reject info/check graphs with more than $(docv) vertices.")
  in
  let slice =
    Arg.(
      value
      & opt int Serve.default_config.Serve.census_slice
      & info [ "census-slice" ] ~docv:"N" ~doc:"Census ranks per request-deadline check.")
  in
  let timeout =
    Arg.(
      value
      & opt float Serve.default_config.Serve.request_timeout
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-request cooperative deadline.")
  in
  let atlas =
    let doc =
      "Persistent equilibrium atlas directory (created if missing): a \
       crash-safe warm-start tier under the in-memory cache. Cache \
       misses probe it before computing; computed verdicts are appended \
       to it, so they survive restarts. Responses are byte-identical \
       with or without it."
    in
    Arg.(value & opt (some string) None & info [ "atlas" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the batching RPC server (newline-delimited JSON over unix/tcp sockets)")
    Term.(
      ret
        (const serve $ listen $ jobs_arg $ workers $ cache $ shards $ max_bytes
       $ max_vertices $ slice $ timeout $ atlas $ stats_arg $ stats_json_arg))

let call addr timeout meth game g6 kind n lo hi raw =
  let request =
    match raw with
    | Some line -> Ok line
    | None -> (
      match meth with
      | None -> Error "METHOD is required (or use --raw)"
      | Some meth ->
        let params =
          List.filter_map
            (fun x -> x)
            [
              Option.map (fun v -> ("game", Jsonx.Str (Game.to_string v))) game;
              Option.map (fun s -> ("graph6", Jsonx.Str s)) g6;
              Option.map (fun s -> ("kind", Jsonx.Str s)) kind;
              Option.map (fun i -> ("n", Jsonx.Int i)) n;
              Option.map (fun i -> ("lo", Jsonx.Int i)) lo;
              Option.map (fun i -> ("hi", Jsonx.Int i)) hi;
            ]
        in
        Ok
          (Jsonx.to_string
             (Jsonx.Obj
                (("id", Jsonx.Int 0) :: ("method", Jsonx.Str meth)
                :: (if params = [] then [] else [ ("params", Jsonx.Obj params) ])))))
  in
  match request with
  | Error msg -> `Error (false, msg)
  | Ok line -> (
    match Serve.with_client ~timeout addr (fun c -> Serve.call c line) with
    | response ->
      print_endline response;
      let ok =
        match Jsonx.parse response with
        | Ok r -> Jsonx.member "ok" r = Some (Jsonx.Bool true)
        | Error _ -> false
      in
      if ok then `Ok () else `Error (false, "server returned an error")
    | exception Failure msg -> `Error (false, msg)
    | exception Unix.Unix_error (e, fn, arg) ->
      `Error (false, Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))

let call_cmd =
  let addr =
    let doc = "Server address: $(b,unix:PATH) or $(b,tcp:HOST:PORT)." in
    Arg.(required & opt (some address_conv) None & info [ "a"; "addr" ] ~docv:"ADDR" ~doc)
  in
  let timeout =
    Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Reply timeout.")
  in
  let meth =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"METHOD" ~doc:"ping, stats, info, check, or census-shard.")
  in
  let game =
    Arg.(value & opt (some game_conv) None & info [ "game" ] ~doc:game_doc)
  in
  let g6 =
    Arg.(value & opt (some string) None & info [ "graph6" ] ~docv:"GRAPH6" ~doc:"Graph for info/check.")
  in
  let kind =
    let doc =
      "Census kind: "
      ^ String.concat ", "
          (List.map Census.kind_name [ Census.Trees; Census.Graphs; Census.Orderly ])
      ^ "."
    in
    Arg.(value & opt (some string) None & info [ "kind" ] ~doc)
  in
  let n = Arg.(value & opt (some int) None & info [ "n" ] ~doc:"Census vertex count.") in
  let lo = Arg.(value & opt (some int) None & info [ "lo" ] ~doc:"Census shard start rank.") in
  let hi = Arg.(value & opt (some int) None & info [ "hi" ] ~doc:"Census shard end rank.") in
  let raw =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"LINE" ~doc:"Send $(docv) verbatim instead of building a request.")
  in
  Cmd.v
    (Cmd.info "call" ~doc:"Send one request to a running bncg serve and print the reply")
    Term.(
      ret
        (const call $ addr $ timeout $ meth $ game $ g6 $ kind $ n $ lo $ hi
       $ raw))

(* --- atlas --------------------------------------------------------------- *)

let atlas_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Atlas directory.")

let atlas_stats dir =
  match Atlas.open_ ~readonly:true dir with
  | Error msg -> `Error (false, msg)
  | Ok a ->
    let s = Atlas.stats a in
    Atlas.close a;
    Printf.printf "segments: %d\n" s.Atlas.segments;
    Printf.printf "records: %d\n" s.Atlas.records;
    Printf.printf "bytes: %d\n" s.Atlas.bytes;
    Printf.printf "torn tails skipped: %d\n" s.Atlas.torn_records;
    Printf.printf "corrupt records skipped: %d\n" s.Atlas.corrupt_records;
    `Ok ()

let atlas_verify dir =
  match Atlas.verify dir with
  | Error msg -> `Error (false, msg)
  | Ok r ->
    Printf.printf "segments: %d\n" r.Atlas.v_segments;
    Printf.printf "records: %d (%d live)\n" r.Atlas.v_records r.Atlas.v_live;
    Printf.printf "bytes: %d\n" r.Atlas.v_bytes;
    Printf.printf "torn tails: %d\n" r.Atlas.v_torn;
    Printf.printf "corrupt records: %d\n" r.Atlas.v_corrupt;
    if r.Atlas.v_corrupt = 0 then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "%d record(s) failed their checksum" r.Atlas.v_corrupt
        )

let atlas_compact dir =
  match Atlas.compact dir with
  | Error msg -> `Error (false, msg)
  | Ok r ->
    Printf.printf "segments: %d -> %d\n" r.Atlas.c_segments_before
      r.Atlas.c_segments_after;
    Printf.printf "records: %d -> %d live\n" r.Atlas.c_records_before
      r.Atlas.c_live;
    Printf.printf "bytes: %d -> %d\n" r.Atlas.c_bytes_before
      r.Atlas.c_bytes_after;
    `Ok ()

let atlas_cmd =
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Open the atlas read-only and print segment/record counts and \
            what recovery (if any) the open performed")
      Term.(ret (const atlas_stats $ atlas_dir_arg))
  in
  let verify_cmd =
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-read every segment from byte 0 and checksum every record. \
            Exits non-zero if any well-framed record fails its checksum; \
            torn tails (expected after a crash) are reported but are not \
            an error, since reopening truncates them away.")
      Term.(ret (const atlas_verify $ atlas_dir_arg))
  in
  let compact_cmd =
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Rewrite live records (first write wins, valid checksums only) \
            into fresh segments and delete the old ones. Crash-safe: new \
            segments land before any old segment is removed.")
      Term.(ret (const atlas_compact $ atlas_dir_arg))
  in
  Cmd.group
    (Cmd.info "atlas"
       ~doc:"Inspect and maintain a persistent equilibrium atlas directory")
    [ stats_cmd; verify_cmd; compact_cmd ]

(* --- main ---------------------------------------------------------------- *)

let () =
  let doc = "basic network creation games (Alon, Demaine, Hajiaghayi, Leighton; SPAA 2010)" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "bncg" ~version:"1.0.0" ~doc)
          [
            generate_cmd;
            info_cmd;
            check_cmd;
            dynamics_cmd;
            census_cmd;
            experiment_cmd;
            hunt_cmd;
            audit_cmd;
            serve_cmd;
            call_cmd;
            atlas_cmd;
          ]))
