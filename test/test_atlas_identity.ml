(* Differential battery for the equilibrium atlas: the atlas must be
   invisible in output bytes. Each case runs the same seeded workload
   three ways — atlas off, cold atlas (fresh directory), warm atlas
   (the populated directory reopened) — and compares outputs byte for
   byte, then asserts the warm pass actually hit the atlas so the
   equality is not vacuous. *)

open Test_helpers

let check_str = Alcotest.(check string)
let with_dir = Test_atlas.with_dir
let open_exn = Test_atlas.open_exn

(* ---------- census ---------- *)

let render r = Jsonx.to_string (Rpc.census_result r)

let census_pass dir shard =
  let a = open_exn dir in
  Fun.protect ~finally:(fun () -> Atlas.close a) @@ fun () ->
  let r = render (Census.run_shard ~atlas:a shard) in
  Atlas.flush a;
  (r, Atlas.stats a)

let census_identity version n () =
  with_dir "census-ident" @@ fun dir ->
  let shard = Census.full_shard Census.Graphs version n in
  let plain = render (Census.run_shard shard) in
  let cold, cold_stats = census_pass dir shard in
  let warm, warm_stats = census_pass dir shard in
  check_str "cold identical to plain" plain cold;
  check_str "warm identical to plain" plain warm;
  check_true "cold pass appended" (cold_stats.Atlas.appended > 0);
  check_true "warm pass hit the atlas" (warm_stats.Atlas.hits > 0);
  check_int "warm pass appended nothing" 0 warm_stats.Atlas.appended

let test_census_identity_sum = census_identity Game.Sum 5
let test_census_identity_max = census_identity Game.Max 5

let test_tree_census_ignores_atlas () =
  (* trees classify in closed form, cheaper than an atlas probe: the
     shard must neither consult nor populate the store *)
  with_dir "census-trees" @@ fun dir ->
  let shard = Census.full_shard Census.Trees Game.Sum 6 in
  let plain = render (Census.run_shard shard) in
  let with_atlas, stats = census_pass dir shard in
  check_str "identical to plain" plain with_atlas;
  check_int "no probes" 0 (stats.Atlas.hits + stats.Atlas.misses);
  check_int "no appends" 0 stats.Atlas.appended

(* ---------- serve ---------- *)

let temp_sock =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bncg-atlas-ident-%d-%d.sock" (Unix.getpid ()) !counter)

let atlas_hits_of stats_reply =
  match Jsonx.parse stats_reply with
  | Error _ -> -1
  | Ok r ->
    Option.value ~default:0
      (Option.bind
         (Option.bind
            (Option.bind (Jsonx.member "result" r) (Jsonx.member "atlas"))
            (Jsonx.member "hits"))
         Jsonx.to_int)

(* one fresh server per pass: the LRU starts empty every time, so any
   warm-pass speedup or hit must come from the atlas alone. The pass
   sends test_serve's workload from 3 concurrent clients: equilibria
   under relabeling (the 9-star: canonical atlas keys) and a violation
   (the 8-path under max, whose witness keeps its key exact) *)
let serve_pass atlas_dir =
  let sock = temp_sock () in
  let cfg =
    {
      Serve.default_config with
      Serve.addresses = [ Serve.Unix_sock sock ];
      jobs = 2;
      atlas_dir;
    }
  in
  let srv = Serve.start cfg in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  let addr = Serve.Unix_sock sock in
  let replies = Test_serve.drive addr ~conns:3 ~requests:4000 in
  let hits =
    Serve.with_client addr (fun c ->
        atlas_hits_of (Serve.call c "{\"method\":\"stats\"}"))
  in
  (replies, hits)

let test_serve_identity () =
  with_dir "serve-ident" @@ fun dir ->
  let off, off_hits = serve_pass None in
  let cold, _ = serve_pass (Some dir) in
  let warm, warm_hits = serve_pass (Some dir) in
  check_int "no atlas means no atlas stats" 0 off_hits;
  Array.iteri
    (fun id reply ->
      if not (String.equal reply cold.(id) && String.equal reply warm.(id)) then
        Alcotest.failf "reply %d: atlas off %s, cold %s, warm %s" id reply cold.(id)
          warm.(id))
    off;
  check_true "warm pass hit the atlas" (warm_hits > 0)

let suite =
  [
    case "census sum n=5: off = cold = warm" test_census_identity_sum;
    case "census max n=5: off = cold = warm" test_census_identity_max;
    case "tree census ignores the atlas" test_tree_census_ignores_atlas;
    case "serve responses: off = cold = warm" test_serve_identity;
  ]
