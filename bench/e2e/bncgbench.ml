(* End-to-end and per-layer benchmark of the three user paths: a serve
   equilibrium check, an orderly census and a scale-dynamics run.

     dune exec bench/e2e/bncgbench.exe -- --seed 1 --json OUT
         every workload, each in a fresh child process
     dune exec bench/e2e/bncgbench.exe -- --workload census-sum --seed 3 \
         --seconds 10 --trace 0
         one workload in this process; the last stdout line is
         {"correct", "attempted", "failed", "metrics"}
     ... --trace 1
         also re-run the same inputs with timers around each layer's
         public calls and Telemetry counters on; the result line then
         carries the per-layer metrics
     ... --runs 10
         every workload ten times, seeds S..S+9 (for --compare)
     dune exec bench/e2e/bncgbench.exe -- --compare A.json B.json
         apply BENCHMARK.json's bounds, one row per (workload, metric);
         each side may be a comma-separated list of row files

   Options: --seconds S (default 10) is each run's measured window,
   --toy shrinks every input (the build's own test), --benchmark FILE
   (default BENCHMARK.json) is where the metric definitions and bounds
   are read. See README.md in this directory for what each workload and
   metric means. *)

let workloads =
  [
    Serve_load.workload "serve-hot";
    Serve_load.workload "serve-cold";
    Serve_load.workload "serve-warm";
    Census_load.workload "census-sum";
    Census_load.workload "census-max";
    Scale_load.workload;
  ]

let find_workload name =
  match List.find_opt (fun w -> w.Workload.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "bncgbench: unknown workload %s (one of: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.Workload.name) workloads));
    exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable toy : bool;
  mutable runs : int;
  mutable json : string option;
  mutable benchmark : string;
  mutable compare : (string * string) option;
  mutable serve : string option;
  mutable atlas : string option;
  mutable telemetry : bool;
  mutable ready : string option;
}

let parse_args () =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 10.0;
      trace = false;
      toy = false;
      runs = 1;
      json = None;
      benchmark = "BENCHMARK.json";
      compare = None;
      serve = None;
      atlas = None;
      telemetry = false;
      ready = None;
    }
  in
  let bad fmt = Printf.ksprintf (fun s -> prerr_endline ("bncgbench: " ^ s); exit 2) fmt in
  let int_arg k v = match int_of_string_opt v with Some i -> i | None -> bad "%s wants an integer" k in
  let rec scan = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workload <- Some v; scan rest
    | "--seed" :: v :: rest -> o.seed <- int_arg "--seed" v; scan rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> o.seconds <- s
      | _ -> bad "--seconds wants a positive number");
      scan rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> o.trace <- false | "1" -> o.trace <- true | _ -> bad "--trace wants 0 or 1");
      scan rest
    | "--toy" :: rest -> o.toy <- true; scan rest
    | "--runs" :: v :: rest -> o.runs <- max 1 (int_arg "--runs" v); scan rest
    | "--json" :: v :: rest -> o.json <- Some v; scan rest
    | "--benchmark" :: v :: rest -> o.benchmark <- v; scan rest
    | "--compare" :: a :: b :: rest -> o.compare <- Some (a, b); scan rest
    | "--serve" :: v :: rest -> o.serve <- Some v; scan rest
    | "--atlas" :: v :: rest -> o.atlas <- Some v; scan rest
    | "--telemetry" :: rest -> o.telemetry <- true; scan rest
    | "--ready" :: v :: rest -> o.ready <- Some v; scan rest
    | arg :: _ -> bad "unknown argument %s (see the header of bench/e2e/bncgbench.ml)" arg
  in
  scan (List.tl (Array.to_list Sys.argv));
  o

let cfg_of o ~seed ~work =
  { Workload.seed; seconds = o.seconds; trace = o.trace; toy = o.toy; work }

let header o =
  {
    Rows.seed = o.seed;
    seconds = o.seconds;
    trace = o.trace;
    runs = o.runs;
    sizes =
      List.map
        (fun w -> (w.Workload.name, w.Workload.size (cfg_of o ~seed:o.seed ~work:"")))
        workloads;
  }

(* Scratch space for sockets and atlas directories, inside the working
   directory and removed on exit. *)
let with_work_dir f =
  let root = ".bncgbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  Measure.remove_tree dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Measure.remove_tree dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let print_rows rows =
  List.iter
    (fun r ->
      Printf.eprintf "  %-11s %-28s %14.6g %-6s %s%s\n" r.Rows.workload r.Rows.name
        r.Rows.value r.Rows.unit (Rows.kind_name r.Rows.kind)
        (match r.Rows.base with
        | Some b -> Printf.sprintf " (base %d)" b
        | None -> Printf.sprintf " (n=%d)" r.Rows.samples))
    rows

(* One workload, in this process. *)
let run_one o name =
  let w = find_workload name in
  let outcome = with_work_dir (fun work -> w.Workload.run (cfg_of o ~seed:o.seed ~work)) in
  Printf.eprintf "%s (seed %d): %d checked, %d failed\n" name o.seed outcome.attempted
    outcome.failed;
  print_rows outcome.rows;
  Option.iter (fun path -> Rows.write path (header o) outcome.rows) o.json;
  (* the result line must come last, also where stderr and stdout share a
     file *)
  flush stderr;
  print_endline
    (Rows.result_line ~trace:o.trace ~attempted:outcome.attempted ~failed:outcome.failed
       outcome.rows);
  if outcome.failed > 0 || outcome.attempted = 0 then exit 1

(* Every workload, each run in a fresh child process. *)
let run_all o =
  let failures = ref 0 in
  let rows =
    with_work_dir (fun work ->
        List.concat_map
          (fun run ->
            List.concat_map
              (fun w ->
                let name = w.Workload.name in
                let out = Filename.concat work (Printf.sprintf "%s-%d.json" name run) in
                let args =
                  [
                    "--workload"; name; "--seed"; string_of_int (o.seed + run);
                    "--seconds"; Printf.sprintf "%g" o.seconds;
                    "--trace"; (if o.trace then "1" else "0"); "--json"; out;
                  ]
                  @ if o.toy then [ "--toy" ] else []
                in
                let exe = Sys.executable_name in
                let log = Filename.concat work (Printf.sprintf "%s-%d.log" name run) in
                let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
                let pid =
                  Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd
                in
                Unix.close fd;
                let status = snd (Unix.waitpid [] pid) in
                let output = In_channel.with_open_text log In_channel.input_lines in
                (* the child's last line is its result line *)
                let result k =
                  match List.rev output with
                  | last :: _ -> (
                    match Jsonx.parse last with
                    | Ok j -> Option.bind (Jsonx.member k j) Jsonx.to_int
                    | Error _ -> None)
                  | [] -> None
                in
                Printf.printf "%-11s seed %-4d %s\n%!" name (o.seed + run)
                  (match (result "attempted", result "failed") with
                  | Some a, Some f -> Printf.sprintf "%d checked, %d failed" a f
                  | _ -> "no result");
                match status with
                | Unix.WEXITED 0 -> List.map (fun r -> { r with Rows.run }) (Rows.read out)
                | _ ->
                  List.iter prerr_endline output;
                  Printf.eprintf "bncgbench: %s (seed %d) failed\n%!" name (o.seed + run);
                  incr failures;
                  [])
              workloads)
          (List.init o.runs Fun.id))
  in
  Option.iter (fun path -> Rows.write path (header o) rows) o.json;
  let problems =
    if Sys.file_exists o.benchmark then Rows.validate ~benchmark:o.benchmark ~trace:o.trace rows
    else begin
      Printf.eprintf "bncgbench: no %s here; rows not checked against it\n" o.benchmark;
      []
    end
  in
  List.iter (fun p -> Printf.eprintf "bncgbench: schema: %s\n" p) problems;
  Printf.printf "%d workloads x %d runs, %d failed, %d schema problems\n"
    (List.length workloads) o.runs !failures (List.length problems);
  if !failures > 0 || problems <> [] then exit 1

let () =
  let o = parse_args () in
  match (o.serve, o.ready, o.compare, o.workload) with
  | Some sock, _, _, _ ->
    Serve_load.serve_child ~sock ~atlas:o.atlas ~telemetry:o.telemetry
  | None, Some name, _, _ ->
    (find_workload name).Workload.ready (cfg_of o ~seed:o.seed ~work:"");
    Measure.announce_ready ()
  | None, None, Some (a, b), _ -> Compare_runs.main ~benchmark:o.benchmark a b
  | None, None, None, Some name -> run_one o name
  | None, None, None, None -> run_all o
