(* The benchmark's one row writer.

   Every row names its workload and carries a unit and a kind, so a count
   or a ratio can never be read as a time:
     measured  timed directly around a call into a layer's public API;
     computed  a counter times a per-call cost measured on the same input;
     residual  an end-to-end time minus the layers that were timed.
   The metric catalogue below fixes each name's unit once; BENCHMARK.json
   must agree with it, and [validate] checks that it does. *)

type kind = Measured | Computed | Residual

let kind_name = function
  | Measured -> "measured"
  | Computed -> "computed"
  | Residual -> "residual"

let kind_of_name = function
  | "measured" -> Some Measured
  | "computed" -> Some Computed
  | "residual" -> Some Residual
  | _ -> None

(* --- metric catalogue --------------------------------------------------- *)

(* What a user of each path sees, gated by BENCHMARK.json's bounds. An
   operation is one request (serve), one full census (census) or one
   dynamics run (scale). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_ops", "1/s");
    ("latency_p50_us", "us");
    ("peak_rss_mb", "MB");
  ]

(* Reported beside the end-to-end rows but not gated: over ten seeds on a
   shared 2-core VM, the p90 of a run spread by up to 0.24 (quartile
   distance over median), as wide as the widest bound allowed. *)
let ungated = [ ("latency_p90_us", "us") ]

(* Single layers. A workload reports the layers on its path; the others
   read 0 in its result line. *)
let per_layer =
  [
    (* serve: per-request means from the in-process replay *)
    ("rpc.parse_us", "us");
    ("lru.find_us", "us");
    ("canon.form_us", "us");
    ("equilibrium.check_us", "us");
    ("rpc.render_us", "us");
    ("atlas.find_us", "us");
    ("atlas.add_us", "us");
    ("serve.transport_us", "us");
    ("atlas.open_s", "s");
    ("lru.hit_ratio", "ratio");
    ("atlas.hit_ratio", "ratio");
    (* census: per-census means from the traced replay *)
    ("orderly.generate_s", "s");
    ("orderly.representative_s", "s");
    ("equilibrium.check_s", "s");
    ("census.assemble_s", "s");
    ("census.classes", "count");
    ("census.equilibria", "count");
    ("orderly.nodes", "count");
    ("orderly.accept_ratio", "ratio");
    (* scale: per-run means, counters times calibrated per-call costs *)
    ("scale_gen.ba_s", "s");
    ("flexcsr.bfs_swap_s", "s");
    ("flexcsr.bfs_s", "s");
    ("bitbfs.batch_s", "s");
    ("scale.trajectory_s", "s");
    ("scale.other_s", "s");
    ("scale.exact_evals", "count");
    ("scale.certified_skips", "count");
    ("scale.certified_skip_ratio", "ratio");
    (* every workload *)
    ("layer_coverage", "ratio");
    ("trace_overhead", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ ungated @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Rows.unit_of: unknown metric " ^ name)

(* --- rows -------------------------------------------------------------- *)

type row = {
  run : int;
  workload : string;
  name : string;
  unit : string;
  kind : kind;
  value : float;
  samples : int;  (** how many samples the value summarizes *)
  base : int option;  (** the denominator of a ratio *)
}

let v ?(kind = Measured) ?base ~samples workload name value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "%s/%s: non-finite value" workload name);
  { run = 0; workload; name; unit = unit_of name; kind; value; samples; base }

(* A ratio with its base; 0 when the base is empty. *)
let ratio workload name ~num ~den =
  v ~samples:den ~base:den workload name
    (if den = 0 then 0.0 else float_of_int num /. float_of_int den)

let count workload name n = v ~samples:1 workload name (float_of_int n)

type header = {
  seed : int;
  seconds : float;
  trace : bool;
  runs : int;
  sizes : (string * string) list;  (** workload -> input size *)
}

let header_json h =
  Jsonx.Obj
    [
      ("seed", Jsonx.Int h.seed);
      ("nproc", Jsonx.Int (Domain.recommended_domain_count ()));
      ("ocaml", Jsonx.Str Sys.ocaml_version);
      ("seconds", Jsonx.Float h.seconds);
      ("trace", Jsonx.Bool h.trace);
      ("runs", Jsonx.Int h.runs);
      ( "sizes",
        Jsonx.Obj (List.map (fun (w, s) -> (w, Jsonx.Str s)) h.sizes) );
    ]

let row_json r =
  Jsonx.Obj
    ([
       ("run", Jsonx.Int r.run);
       ("workload", Jsonx.Str r.workload);
       ("name", Jsonx.Str r.name);
       ("unit", Jsonx.Str r.unit);
       ("kind", Jsonx.Str (kind_name r.kind));
       ("value", Jsonx.Float r.value);
       ("samples", Jsonx.Int r.samples);
     ]
    @ match r.base with None -> [] | Some b -> [ ("base", Jsonx.Int b) ])

let write path header rows =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\"header\": %s,\n \"rows\": [\n"
        (Jsonx.to_string (header_json header));
      List.iteri
        (fun i r ->
          Printf.fprintf oc "  %s%s\n"
            (Jsonx.to_string (row_json r))
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc " ]}\n")

let parse_file path =
  match Jsonx.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let read path =
  let j = parse_file path in
  let field k r conv =
    match Option.bind (Jsonx.member k r) conv with
    | Some x -> x
    | None -> failwith (Printf.sprintf "%s: a row lacks a valid %S" path k)
  in
  let number = function
    | Jsonx.Float f -> Some f
    | Jsonx.Int i -> Some (float_of_int i)
    | _ -> None
  in
  let rows =
    match Jsonx.member "rows" j with
    | Some (Jsonx.List rs) -> rs
    | _ -> failwith (path ^ ": no rows")
  in
  List.map
    (fun r ->
      {
        run = field "run" r Jsonx.to_int;
        workload = field "workload" r Jsonx.to_str;
        name = field "name" r Jsonx.to_str;
        unit = field "unit" r Jsonx.to_str;
        kind = field "kind" r (fun k -> Option.bind (Jsonx.to_str k) kind_of_name);
        value = field "value" r number;
        samples = field "samples" r Jsonx.to_int;
        base = Option.bind (Jsonx.member "base" r) Jsonx.to_int;
      })
    rows

(* --- the result line ----------------------------------------------------- *)

(* The last line of a single-workload run: the outcome counts and, by
   name, every end-to-end metric (untraced) or every per-layer metric
   (traced). Layers off this workload's path read 0. *)
let result_line ~trace ~attempted ~failed rows =
  let names = List.map fst (if trace then per_layer else end_to_end) in
  let value name =
    match List.find_opt (fun r -> r.name = name) rows with
    | Some r -> r.value
    | None -> 0.0
  in
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool (failed = 0 && attempted > 0));
         ("attempted", Jsonx.Int attempted);
         ("failed", Jsonx.Int failed);
         ( "metrics",
           Jsonx.Obj
             (List.map
                (fun n ->
                  ( n,
                    Jsonx.Obj
                      [
                        ("value", Jsonx.Float (value n));
                        ("unit", Jsonx.Str (unit_of n));
                      ] ))
                names) );
       ])

(* --- BENCHMARK.json ------------------------------------------------------ *)

type spec = {
  s_name : string;
  s_unit : string;
  s_lower_better : bool;
  s_bound : float option;  (** end-to-end metrics only *)
}

let specs path =
  let j = parse_file path in
  let section key =
    match Jsonx.member key j with
    | Some (Jsonx.List l) ->
      List.map
        (fun m ->
          let str k =
            match Option.bind (Jsonx.member k m) Jsonx.to_str with
            | Some s -> s
            | None -> failwith (Printf.sprintf "%s: %s entry lacks %S" path key k)
          in
          {
            s_name = str "name";
            s_unit = str "unit";
            s_lower_better = str "better" = "lower";
            s_bound =
              (match Jsonx.member "bound" m with
              | Some (Jsonx.Float f) -> Some f
              | Some (Jsonx.Int i) -> Some (float_of_int i)
              | _ -> None);
          })
        l
    | _ -> failwith (Printf.sprintf "%s: no %S list" path key)
  in
  (section "end_to_end", section "per_layer")

(* Schema check of a run's rows against BENCHMARK.json: the catalogue and
   the file name the same metrics with the same units, every workload
   reports every end-to-end metric, and (traced) every per-layer metric is
   reported by some workload. Returns the problems found. *)
let validate ~benchmark ~trace rows =
  let e2e, layers = specs benchmark in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check_catalogue section catalogue specs =
    List.iter
      (fun s ->
        match List.assoc_opt s.s_name catalogue with
        | None -> problem "%s metric %s is not in the catalogue" section s.s_name
        | Some u when u <> s.s_unit ->
          problem "%s has unit %s here but %s in BENCHMARK.json" s.s_name u s.s_unit
        | Some _ -> ())
      specs;
    List.iter
      (fun (n, _) ->
        if not (List.exists (fun s -> s.s_name = n) specs) then
          problem "%s metric %s is missing from BENCHMARK.json" section n)
      catalogue
  in
  check_catalogue "end_to_end" end_to_end e2e;
  check_catalogue "per_layer" per_layer layers;
  List.iter
    (fun r ->
      if r.unit <> unit_of r.name then
        problem "%s/%s: unit %s, catalogue says %s" r.workload r.name r.unit
          (unit_of r.name))
    rows;
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) rows) in
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          if not (List.exists (fun r -> r.workload = w && r.name = s.s_name) rows)
          then problem "%s: no %s row" w s.s_name)
        e2e)
    workloads;
  if trace then
    List.iter
      (fun s ->
        if not (List.exists (fun r -> r.name = s.s_name) rows) then
          problem "no workload reports %s" s.s_name)
      layers;
  List.rev !problems
