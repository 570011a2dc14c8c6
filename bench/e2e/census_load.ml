(* census-sum and census-max: the orderly census, repeated for the window.

   Why two: on sum n = 7 about half of the 853 classes are equilibria, so
   the O(n!) minimum-mask representative search dominates; on max n = 8
   only 24 of 11 117 classes are, so generation (extension + Canon.cert)
   dominates. An optimisation of one should move only its own workload.

   The census takes no random input: the seed does not change it. *)

type spec = {
  game : Game.t;
  n : int;
  equilibria : int;  (** equilibrium classes *)
  digest : string;  (** MD5 of the rendered census JSON *)
}

(* connected graphs on n vertices: up to isomorphism (OEIS A001349) and
   labeled (OEIS A001187) *)
let a001349 = [| 1; 1; 1; 2; 6; 21; 112; 853; 11117 |]

let a001187 = [| 1; 1; 1; 4; 38; 728; 26704; 1866256; 251548592 |]

let spec name (cfg : Workload.cfg) =
  match (name, cfg.toy) with
  | "census-sum", false ->
    { game = Game.Sum; n = 7; equilibria = 374; digest = "86e5e5163ee6b20f18e6d5ee46c2b3cb" }
  | "census-max", false ->
    { game = Game.Max; n = 8; equilibria = 24; digest = "4928ba1ca2757ae5c5634959e4d0905a" }
  | "census-sum", true ->
    { game = Game.Sum; n = 5; equilibria = 15; digest = "51eadb9b517a1034c3cd9c3f111b69d1" }
  | _ -> { game = Game.Max; n = 6; equilibria = 7; digest = "1b436953eef0976202e3d2772277f9c4" }

let render c = Jsonx.to_string (Rpc.graph_census_result ~kind:"orderly" c)

(* Every repetition is checked against the committed counts and digest. *)
let wrong s (c : Census.graph_census) =
  let problems =
    List.filter_map Fun.id
      [
        (if c.Census.connected <> a001187.(s.n) then
           Some (Printf.sprintf "labeled count %d, A001187 says %d" c.connected a001187.(s.n))
         else None);
        (let k = List.length c.equilibria_iso in
         if k <> s.equilibria then
           Some (Printf.sprintf "%d equilibrium classes, expected %d" k s.equilibria)
         else None);
        (let d = Digest.to_hex (Digest.string (render c)) in
         if d <> s.digest then Some (Printf.sprintf "census digest %s, expected %s" d s.digest)
         else None);
      ]
  in
  List.iter (fun p -> Printf.eprintf "census n=%d: %s\n%!" s.n p) problems;
  problems <> []

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

type split = {
  total : float;
  generate : float;
  check : float;
  representative : float;
  classes : int;
}

(* The census replayed through the public calls of each layer, in
   [Census.orderly_census_in]'s order, with a timer around each. The record
   it assembles must render to the same bytes. *)
let traced_census s =
  let now = Measure.now_ns in
  let t0 = now () in
  let in_callback = ref 0 and check = ref 0 and repr = ref 0 in
  let classes = ref 0 and connected = ref 0 and labeled = ref 0 in
  let reps = ref [] in
  let copies_of_class = factorial s.n in
  Orderly.iter s.n (fun g cert ->
      let c0 = now () in
      incr classes;
      let copies = copies_of_class / cert.Canon.aut_count in
      connected := !connected + copies;
      let k0 = now () in
      let eq = Equilibrium.is_equilibrium s.game g in
      let k1 = now () in
      check := !check + (k1 - k0);
      if eq then begin
        labeled := !labeled + copies;
        let rep = Orderly.representative g cert in
        repr := !repr + (now () - k1);
        reps := (Orderly.mask_of_graph rep, rep) :: !reps
      end;
      in_callback := !in_callback + (now () - c0));
  let t_iter = now () - t0 in
  let iso = List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !reps) in
  let diams = List.map (fun g -> Option.get (Metrics.diameter g)) iso in
  let c =
    {
      Census.n = s.n;
      connected = !connected;
      equilibria_labeled = !labeled;
      equilibria_iso = iso;
      diameter_histogram = Stats.histogram (Array.of_list diams);
      max_diameter = List.fold_left max 0 diams;
    }
  in
  let sec ns = float_of_int ns *. 1e-9 in
  ( c,
    {
      total = sec (now () - t0);
      generate = sec (t_iter - !in_callback);
      check = sec !check;
      representative = sec !repr;
      classes = !classes;
    } )

let run name (cfg : Workload.cfg) =
  let s = spec name cfg in
  let w = name in
  let probe, setup = Workload.setup_probe cfg name in
  let failed = ref 0 and attempted = ref 0 in
  let tally bad =
    incr attempted;
    if bad then incr failed
  in
  let op_s =
    Measure.repeat_for ~seconds:(Workload.window cfg)
      ~check:(fun c ->
        tally (wrong s c);
        probe ())
      (fun () -> Census.orderly_census s.game s.n)
  in
  let rows =
    Workload.e2e_rows w ~setup:(setup ()) ~op_s ~wall:(Workload.sum op_s)
      ~rss_mb:(Measure.peak_rss_mb "self")
  in
  let layer_rows =
    if not cfg.trace then []
    else begin
      let nodes = Telemetry.counter "census.orderly.extensions" in
      Telemetry.set_enabled true;
      let before = Telemetry.counter_value nodes in
      let splits = ref [] and equilibria = ref 0 in
      let traced =
        Measure.repeat_for ~seconds:(Workload.window cfg)
          ~check:(fun (c, sp) ->
            if sp.classes <> a001349.(s.n) then
              Printf.eprintf "census n=%d: %d classes, A001349 says %d\n%!" s.n sp.classes
                a001349.(s.n);
            tally (wrong s c || sp.classes <> a001349.(s.n));
            equilibria := List.length c.Census.equilibria_iso;
            splits := sp :: !splits)
          (fun () -> traced_census s)
      in
      let k = Array.length traced in
      let node_count = (Telemetry.counter_value nodes - before) / k in
      Telemetry.set_enabled false;
      let splits = Array.of_list !splits in
      let avg f = Workload.sum (Array.map f splits) /. float_of_int k in
      let total = avg (fun sp -> sp.total) in
      let generate = avg (fun sp -> sp.generate) in
      let check = avg (fun sp -> sp.check) in
      let representative = avg (fun sp -> sp.representative) in
      let classes = splits.(0).classes in
      [
        Rows.v ~samples:k w "orderly.generate_s" generate;
        Rows.v ~samples:k w "orderly.representative_s" representative;
        Rows.v ~samples:k w "equilibrium.check_s" check;
        Rows.v ~kind:Rows.Residual ~samples:k w "census.assemble_s"
          (total -. generate -. check -. representative);
        Rows.count w "census.classes" classes;
        Rows.count w "census.equilibria" !equilibria;
        Rows.count w "orderly.nodes" node_count;
        Rows.ratio w "orderly.accept_ratio" ~num:classes ~den:node_count;
      ]
      @ Workload.trace_rows w ~samples:k
          ~covered:(generate +. check +. representative)
          ~traced:total ~untraced_p50:(Stats.median op_s)
          ~traced_p50:(Stats.median (Array.map (fun sp -> sp.total) splits))
    end
  in
  { Workload.attempted = !attempted; failed = !failed; rows = rows @ layer_rows }

let workload name =
  {
    Workload.name;
    size =
      (fun cfg ->
        let s = spec name cfg in
        Printf.sprintf "orderly census, %s game, n=%d" (Game.to_string s.game) s.n);
    ready = (fun _ -> ());
    run = run name;
  }
