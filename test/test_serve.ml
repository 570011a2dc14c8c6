(* Serving layer: the Jsonx codec, the Rpc parse/render pair, and an
   end-to-end server exercise over a real Unix socket — concurrent
   clients, mixed valid/malformed traffic, responses checked
   byte-for-byte against direct library calls. *)

open Test_helpers

let check_str = Alcotest.(check string)

(* --- jsonx --------------------------------------------------------------- *)

let parse_ok s =
  match Jsonx.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "Jsonx.parse %S failed: %s" s msg

let test_jsonx_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "false";
      "0";
      "-17";
      "\"\"";
      "\"hello\"";
      "[]";
      "[1,2,3]";
      "{}";
      "{\"a\":1,\"b\":[true,null]}";
      "{\"nested\":{\"deep\":[{\"x\":\"y\"}]}}";
    ]
  in
  List.iter
    (fun s -> check_str s s (Jsonx.to_string (parse_ok s)))
    cases

let test_jsonx_whitespace_and_numbers () =
  check_str "ws" "{\"a\":[1,2]}"
    (Jsonx.to_string (parse_ok "  { \"a\" : [ 1 , 2 ] }  "));
  (match parse_ok "3.5" with
  | Jsonx.Float f -> check_true "3.5" (Float.equal f 3.5)
  | _ -> Alcotest.fail "3.5 should parse as Float");
  (match parse_ok "1e3" with
  | Jsonx.Float f -> check_true "1e3" (Float.equal f 1000.0)
  | _ -> Alcotest.fail "1e3 should parse as Float");
  (match parse_ok "42" with
  | Jsonx.Int 42 -> ()
  | _ -> Alcotest.fail "42 should parse as Int");
  (* an integer literal beyond OCaml's int range must not wrap around *)
  match parse_ok "123456789012345678901234567890" with
  | Jsonx.Float _ -> ()
  | _ -> Alcotest.fail "huge integer should fall back to Float"

let test_jsonx_strings () =
  (match parse_ok "\"a\\nb\\t\\\"c\\\\\"" with
  | Jsonx.Str s -> check_str "escapes" "a\nb\t\"c\\" s
  | _ -> Alcotest.fail "expected Str");
  (match parse_ok "\"\\u0041\\u00e9\\u20ac\"" with
  | Jsonx.Str s -> check_str "utf8" "A\xc3\xa9\xe2\x82\xac" s
  | _ -> Alcotest.fail "expected Str");
  (* surrogate pair: U+1F600 *)
  (match parse_ok "\"\\ud83d\\ude00\"" with
  | Jsonx.Str s -> check_str "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected Str");
  (* control characters must render as escapes that re-parse *)
  let s = Jsonx.to_string (Jsonx.Str "a\000b\031c") in
  match Jsonx.parse s with
  | Ok (Jsonx.Str s') -> check_str "control roundtrip" "a\000b\031c" s'
  | _ -> Alcotest.failf "control-char rendering %S did not re-parse" s

let test_jsonx_rejects () =
  let bad =
    [
      "";
      "   ";
      "{";
      "[1,";
      "[1 2]";
      "{\"a\":}";
      "{\"a\" 1}";
      "tru";
      "nul";
      "1.2.3";
      "01x";
      "\"unterminated";
      "\"bad \\q escape\"";
      "\"\\ud83d\""; (* unpaired high surrogate *)
      "\"\\ude00\""; (* unpaired low surrogate *)
      "\"raw \x01 control\"";
      "{} trailing";
      "1 2";
      String.concat "" (List.init 100 (fun _ -> "[")) (* past max_depth *);
    ]
  in
  List.iter
    (fun s ->
      match Jsonx.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "Jsonx.parse should reject %S" s)
    bad

let test_jsonx_total_fuzz () =
  (* no input may escape the (t, string) result type *)
  let rng = Prng.create 0xbead in
  for _ = 1 to 500 do
    let len = Prng.int rng 40 in
    let s = String.init len (fun _ -> Char.chr (Prng.int rng 256)) in
    match Jsonx.parse s with
    | Ok _ | Error _ -> ()
  done

(* --- rpc ----------------------------------------------------------------- *)

let star9 = Generators.star 9

let star9_g6 = Graph6.encode star9

let req_of_string s =
  match Rpc.parse_request s with
  | Ok (id, req) -> (id, req)
  | Error (_, code, msg) ->
    Alcotest.failf "parse_request %S failed: %s %s" s (Rpc.error_code_name code) msg

let err_of_string s =
  match Rpc.parse_request s with
  | Ok _ -> Alcotest.failf "parse_request should reject %S" s
  | Error (id, code, _) -> (id, code)

let test_rpc_parse_ok () =
  (match req_of_string "{\"id\":7,\"method\":\"ping\"}" with
  | Jsonx.Int 7, Rpc.Ping -> ()
  | _ -> Alcotest.fail "ping");
  (match req_of_string "{\"method\":\"stats\"}" with
  | Jsonx.Null, Rpc.Stats -> ()
  | _ -> Alcotest.fail "stats with no id");
  (match
     req_of_string
       (Printf.sprintf "{\"id\":\"a\",\"method\":\"info\",\"params\":{\"graph6\":%S}}"
          star9_g6)
   with
  | Jsonx.Str "a", Rpc.Info { g6; graph } ->
    check_str "g6 kept verbatim" star9_g6 g6;
    check_true "decoded graph" (Graph.equal graph star9)
  | _ -> Alcotest.fail "info");
  (match
     req_of_string
       (Printf.sprintf "{\"method\":\"check\",\"params\":{\"graph6\":%S}}" star9_g6)
   with
  | _, Rpc.Check { game = Game.Sum; _ } -> ()
  | _ -> Alcotest.fail "check defaults to the sum game");
  (match
     req_of_string
       (Printf.sprintf
          "{\"method\":\"check\",\"params\":{\"game\":\"max\",\"graph6\":%S}}" star9_g6)
   with
  | _, Rpc.Check { game = Game.Max; _ } -> ()
  | _ -> Alcotest.fail "check max");
  (match
     req_of_string
       (Printf.sprintf
          "{\"method\":\"check\",\"params\":{\"game\":\"alpha:1.5\",\"graph6\":%S}}"
          star9_g6)
   with
  | _, Rpc.Check { game = Game.Alpha 1.5; _ } -> ()
  | _ -> Alcotest.fail "check alpha");
  (* pre-registry clients spell the game in a "version" field *)
  (match
     req_of_string
       (Printf.sprintf
          "{\"method\":\"check\",\"params\":{\"version\":\"max\",\"graph6\":%S}}"
          star9_g6)
   with
  | _, Rpc.Check { game = Game.Max; _ } -> ()
  | _ -> Alcotest.fail "check legacy version field");
  match
    req_of_string
      "{\"id\":1,\"method\":\"census-shard\",\"params\":{\"kind\":\"trees\",\"game\":\"sum\",\"n\":6,\"lo\":10,\"hi\":20}}"
  with
  | ( Jsonx.Int 1,
      Rpc.Census_shard
        { Census.kind = Census.Trees; n = 6; lo = 10; hi = 20; _ } ) -> ()
  | _ -> Alcotest.fail "census-shard"

let test_rpc_protocol_version () =
  (* explicit "v":1 parses like the unversioned envelope *)
  (match req_of_string "{\"v\":1,\"id\":7,\"method\":\"ping\"}" with
  | Jsonx.Int 7, Rpc.Ping -> ()
  | _ -> Alcotest.fail "v:1 ping");
  (* v:2 (the current version, which added the "game" field) also parses *)
  (match req_of_string "{\"v\":2,\"id\":8,\"method\":\"ping\"}" with
  | Jsonx.Int 8, Rpc.Ping -> ()
  | _ -> Alcotest.fail "v:2 ping");
  (* a version we don't speak: structured refusal, id still echoed *)
  (match err_of_string "{\"v\":3,\"id\":8,\"method\":\"ping\"}" with
  | Jsonx.Int 8, Rpc.Unsupported_version -> ()
  | _ -> Alcotest.fail "v:3 should be unsupported_version");
  (* a malformed version is an envelope error, not a version error *)
  match err_of_string "{\"v\":\"one\",\"method\":\"ping\"}" with
  | _, Rpc.Invalid_request -> ()
  | _ -> Alcotest.fail "non-integer v should be invalid_request"

let test_rpc_parse_errors () =
  let check_code name expected s =
    let _, code = err_of_string s in
    check_str name (Rpc.error_code_name expected) (Rpc.error_code_name code)
  in
  check_code "not json" Rpc.Parse_error "nonsense";
  check_code "not an object" Rpc.Invalid_request "[1,2]";
  check_code "missing method" Rpc.Invalid_request "{\"id\":1}";
  check_code "method not a string" Rpc.Invalid_request "{\"method\":42}";
  check_code "params not an object" Rpc.Invalid_request
    "{\"method\":\"ping\",\"params\":[]}";
  check_code "bad id" Rpc.Invalid_request "{\"id\":[1],\"method\":\"ping\"}";
  check_code "unknown method" Rpc.Unknown_method "{\"method\":\"frobnicate\"}";
  check_code "missing graph6" Rpc.Invalid_params "{\"method\":\"check\"}";
  check_code "bad graph6" Rpc.Bad_graph6
    "{\"method\":\"check\",\"params\":{\"graph6\":\"\\u0001\"}}";
  check_code "bad game" Rpc.Unsupported_game
    (Printf.sprintf
       "{\"method\":\"check\",\"params\":{\"game\":\"median\",\"graph6\":%S}}" star9_g6);
  check_code "bad legacy version" Rpc.Unsupported_game
    (Printf.sprintf
       "{\"method\":\"check\",\"params\":{\"version\":\"median\",\"graph6\":%S}}"
       star9_g6);
  check_code "missing census n" Rpc.Invalid_params
    "{\"method\":\"census-shard\",\"params\":{\"kind\":\"trees\",\"lo\":0,\"hi\":1}}";
  (* the id still comes back when the envelope is bad but the id itself parsed *)
  let id, _ = err_of_string "{\"id\":9,\"method\":\"frobnicate\"}" in
  check_true "id echoed on error" (id = Jsonx.Int 9)

let test_rpc_render () =
  check_str "render_ok"
    "{\"id\":3,\"ok\":true,\"result\":{\"x\":1}}"
    (Rpc.render_ok ~id:(Jsonx.Int 3) ~result:"{\"x\":1}");
  check_str "render_error"
    "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"timeout\",\"message\":\"m\"}}"
    (Rpc.render_error ~id:Jsonx.Null Rpc.Timeout "m")

(* --- end-to-end ----------------------------------------------------------- *)

let temp_sock tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bncg-test-%s-%d.sock" tag (Unix.getpid ()))

let e2e_config sock =
  {
    Serve.default_config with
    Serve.addresses = [ Serve.Unix_sock sock ];
    jobs = 2;
    census_slice = 100 (* small enough that the e2e census merges slices *);
  }

(* the star on 9 vertices with its center relabeled to [c]: distinct
   graph6 text per center, one isomorphism class *)
let star9_centered c =
  let g = Graph.create 9 in
  for v = 0 to 8 do
    if v <> c then Graph.add_edge g c v
  done;
  g

let torus3 = Constructions.torus 3

let path8 = Generators.path 8

(* expected response bytes computed by direct library calls — the server
   must produce exactly these *)
let check_result version g =
  Jsonx.to_string (Rpc.check_result version (Equilibrium.check version g) g)

let expected_check ~id version g =
  Rpc.render_ok ~id:(Jsonx.Int id) ~result:(check_result version g)

(* [~field:"version"] is the pre-registry spelling of "game" *)
let check_request ?(field = "game") ~id game g =
  Printf.sprintf "{\"id\":%d,\"method\":\"check\",\"params\":{%S:%S,\"graph6\":%s}}"
    id field game
    (Jsonx.to_string (Jsonx.Str (Graph6.encode g)))

let info_request ~id g =
  Printf.sprintf "{\"id\":%d,\"method\":\"info\",\"params\":{\"graph6\":%s}}" id
    (Jsonx.to_string (Jsonx.Str (Graph6.encode g)))

(* The serve workload, one class per [id mod 10]: the 9-star for sum
   and for alpha:1, its center rotating through all 9 labelings (one
   canonical miss, then hits); the torus on 18 vertices for max, also
   spelled with the legacy "version" field; the 8-path for max, a
   violation, whose witness names vertices and so keeps its cache and
   atlas keys exact; info; ping; and three lines the envelope parser
   refuses, each answered with a structured error on a connection that
   stays open. The result fragments are computed once, so a long run
   compares every reply byte for byte at no cost. *)
let stars = Array.init 9 star9_centered

let star_sum = Array.map (check_result Game.Sum) stars

let star_alpha = Array.map (check_result (Game.Alpha 1.0)) stars

let torus_max = check_result Game.Max torus3

let path_max = check_result Game.Max path8

let path_info = Jsonx.to_string (Rpc.info_result path8)

let refused line =
  match Rpc.parse_request line with
  | Error (id, code, msg) -> (line, Rpc.render_error ~id code msg)
  | Ok _ -> invalid_arg ("parses: " ^ line)

let workload_item id =
  let ok result = Rpc.render_ok ~id:(Jsonx.Int id) ~result in
  let c = id / 10 mod 9 in
  match id mod 10 with
  | 0 -> (check_request ~id "sum" stars.(c), ok star_sum.(c))
  | 1 -> (check_request ~id "max" torus3, ok torus_max)
  | 2 -> (check_request ~field:"version" ~id "max" torus3, ok torus_max)
  | 3 -> (check_request ~id "alpha:1" stars.(c), ok star_alpha.(c))
  | 4 -> (check_request ~id "max" path8, ok path_max)
  | 5 -> (info_request ~id path8, ok path_info)
  | 6 ->
    ( Printf.sprintf "{\"id\":%d,\"method\":\"ping\"}" id,
      ok (Jsonx.to_string Rpc.ping_result) )
  | 7 -> refused "definitely not json"
  | 8 -> refused "{\"method\":42}"
  | _ -> refused (Printf.sprintf "{\"id\":%d,\"method\":\"frobnicate\"}" id)

(* Workload items [0, requests) over [conns] concurrent connections,
   each writing [depth] request lines in one write before it reads
   their [depth] replies in order (depth 1: one call at a time).
   Returns the replies by id. *)
let drive ?(depth = 1) addr ~conns ~requests =
  let replies = Array.make requests "" in
  let conn t () =
    let hi = (t + 1) * requests / conns in
    Serve.with_client addr @@ fun c ->
    let rec batch lo =
      if lo < hi then begin
        let k = min depth (hi - lo) in
        Serve.send_line c
          (String.concat "\n" (List.init k (fun j -> fst (workload_item (lo + j)))));
        for j = lo to lo + k - 1 do
          replies.(j) <- Serve.recv_line c
        done;
        batch (lo + k)
      end
    in
    batch (t * requests / conns)
  in
  List.iter Thread.join (List.init conns (fun t -> Thread.create (conn t) ()));
  replies

let check_replies replies =
  Array.iteri
    (fun id reply ->
      let _, expected = workload_item id in
      if not (String.equal expected reply) then
        Alcotest.failf "id %d: expected %s, got %s" id expected reply)
    replies

let error_code_of reply =
  match Jsonx.parse reply with
  | Ok r -> (
    match Option.bind (Jsonx.member "error" r) (Jsonx.member "code") with
    | Some (Jsonx.Str c) -> Some c
    | _ -> None)
  | Error _ -> None

(* the server's aggregate cache hit count, from its in-band stats *)
let cache_hits c =
  match Jsonx.parse (Serve.call c "{\"method\":\"stats\"}") with
  | Ok r ->
    Option.value ~default:(-1)
      (Option.bind
         (Option.bind (Option.bind (Jsonx.member "result" r) (Jsonx.member "cache"))
            (Jsonx.member "hits"))
         Jsonx.to_int)
  | Error _ -> -1

let test_e2e_concurrent_clients () =
  let sock = temp_sock "e2e" in
  let srv = Serve.start (e2e_config sock) in
  check_replies (drive (Serve.Unix_sock sock) ~conns:3 ~requests:3000);
  (* repeated isomorphic/identical graphs must have hit the cache *)
  let hits = Serve.with_client (Serve.Unix_sock sock) cache_hits in
  check_true "cache hits > 0" (hits > 0);
  Serve.stop srv;
  Serve.stop srv (* idempotent *);
  check_false "socket unlinked on stop" (Sys.file_exists sock)

let test_e2e_census_shard () =
  let sock = temp_sock "census" in
  let srv = Serve.start (e2e_config sock) in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  Serve.with_client (Serve.Unix_sock sock) @@ fun c ->
  (* trees: slices of 100 merged server-side over 1296 ranks must equal
     one direct full-range call *)
  let total = Enumerate.count_trees 6 in
  let reply =
    Serve.call c
      (Printf.sprintf
         "{\"id\":1,\"method\":\"census-shard\",\"params\":{\"kind\":\"trees\",\"game\":\"sum\",\"n\":6,\"lo\":0,\"hi\":%d}}"
         total)
  in
  let expected =
    Rpc.render_ok ~id:(Jsonx.Int 1)
      ~result:
        (Jsonx.to_string
           (Rpc.census_result
              (Census.run_shard (Census.full_shard Census.Trees Game.Sum 6))))
  in
  check_str "sliced tree census" expected reply;
  let masks = Enumerate.graph_mask_count 5 in
  let reply =
    Serve.call c
      (Printf.sprintf
         "{\"id\":2,\"method\":\"census-shard\",\"params\":{\"kind\":\"graphs\",\"game\":\"sum\",\"n\":5,\"lo\":0,\"hi\":%d}}"
         masks)
  in
  let expected =
    Rpc.render_ok ~id:(Jsonx.Int 2)
      ~result:
        (Jsonx.to_string
           (Rpc.census_result
              (Census.run_shard (Census.full_shard Census.Graphs Game.Sum 5))))
  in
  check_str "sliced graph census" expected reply;
  (* out-of-range shard: structured error, server stays up *)
  let reply =
    Serve.call c
      "{\"id\":3,\"method\":\"census-shard\",\"params\":{\"kind\":\"trees\",\"game\":\"sum\",\"n\":6,\"lo\":0,\"hi\":999999}}"
  in
  check_true "bad shard range rejected" (error_code_of reply = Some "invalid_params");
  check_str "still serving" "{\"id\":4,\"ok\":true,\"result\":\"pong\"}"
    (Serve.call c "{\"id\":4,\"method\":\"ping\"}");
  (* protocol versioning over the wire: a future version is refused with
     a structured code, and stats advertises what this server speaks *)
  let reply = Serve.call c "{\"v\":99,\"id\":5,\"method\":\"ping\"}" in
  check_true "future version refused"
    (error_code_of reply = Some "unsupported_version");
  let stats = Serve.call c "{\"v\":1,\"id\":6,\"method\":\"stats\"}" in
  let advertised =
    match Jsonx.parse stats with
    | Ok r ->
      Option.bind
        (Option.bind (Jsonx.member "result" r) (Jsonx.member "protocol_version"))
        Jsonx.to_int
    | Error _ -> None
  in
  check_true "stats advertises protocol_version"
    (advertised = Some Rpc.protocol_version)

let test_e2e_legacy_and_variant_clients () =
  let sock = temp_sock "legacy" in
  let srv = Serve.start (e2e_config sock) in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  Serve.with_client (Serve.Unix_sock sock) @@ fun c ->
  let g = star9_centered 0 in
  let g6 = Jsonx.to_string (Jsonx.Str (Graph6.encode g)) in
  (* a pre-registry client that names no game at all gets the very same
     bytes as an explicit sum request — the compat contract *)
  let bare =
    Serve.call c
      (Printf.sprintf "{\"id\":1,\"method\":\"check\",\"params\":{\"graph6\":%s}}" g6)
  in
  check_str "no-game request = explicit sum, byte for byte"
    (Serve.call c
       (Printf.sprintf
          "{\"id\":1,\"method\":\"check\",\"params\":{\"game\":\"sum\",\"graph6\":%s}}"
          g6))
    bare;
  check_str "and equals the direct library rendering"
    (expected_check ~id:1 Game.Sum g) bare;
  (* the legacy "version" spelling still works *)
  check_str "legacy version field"
    (expected_check ~id:2 Game.Max torus3)
    (Serve.call c (check_request ~field:"version" ~id:2 "max" torus3));
  (* a variant game round-trips through the same entry point *)
  check_str "alpha check over the wire"
    (expected_check ~id:3 (Game.Alpha 1.0) g)
    (Serve.call c (check_request ~id:3 "alpha:1" g));
  (* a game this server has no registry entry for: structured refusal *)
  check_true "unknown game refused with unsupported_game"
    (error_code_of (Serve.call c (check_request ~id:4 "median" g))
    = Some "unsupported_game");
  (* the orderly walk cannot count a labeling-dependent game *)
  check_true "orderly shard rejects alpha"
    (error_code_of
       (Serve.call c
          "{\"id\":5,\"method\":\"census-shard\",\"params\":{\"kind\":\"orderly\",\"game\":\"alpha:1\",\"n\":5,\"lo\":0,\"hi\":1}}")
    = Some "invalid_params");
  check_str "still serving" "{\"id\":6,\"ok\":true,\"result\":\"pong\"}"
    (Serve.call c "{\"id\":6,\"method\":\"ping\"}")

let test_e2e_limits () =
  let sock = temp_sock "limits" in
  let cfg =
    {
      (e2e_config sock) with
      Serve.max_request_bytes = 256;
      max_graph_vertices = 10;
    }
  in
  let srv = Serve.start cfg in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  Serve.with_client (Serve.Unix_sock sock) @@ fun c ->
  (* an oversized but newline-terminated line: structured reply, and the
     connection keeps working *)
  let big =
    Printf.sprintf "{\"id\":1,\"method\":\"ping\",\"pad\":%S}"
      (String.make 300 'x')
  in
  check_true "oversize request rejected" (error_code_of (Serve.call c big) = Some "too_large");
  check_str "connection survives oversize" "{\"id\":2,\"ok\":true,\"result\":\"pong\"}"
    (Serve.call c "{\"id\":2,\"method\":\"ping\"}");
  (* a graph beyond the server's vertex bound *)
  let reply =
    Serve.call c
      (Printf.sprintf "{\"id\":3,\"method\":\"check\",\"params\":{\"graph6\":%s}}"
         (Jsonx.to_string (Jsonx.Str (Graph6.encode (Generators.star 11)))))
  in
  check_true "oversize graph rejected" (error_code_of reply = Some "too_large")

let test_e2e_violation_not_canonically_cached () =
  (* a path is not a sum equilibrium; its violation witness names
     vertices, so two relabelings must each get a witness valid for
     their own labeling (and byte-identical to the direct call) *)
  let sock = temp_sock "witness" in
  let srv = Serve.start (e2e_config sock) in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  Serve.with_client (Serve.Unix_sock sock) @@ fun c ->
  let relabeled =
    (* 0-1-2-3-4 relabeled by reversal: 4-3-2-1-0 — isomorphic, same
       canonical class, different adjacency text *)
    let g = Graph.create 5 in
    for v = 0 to 3 do
      Graph.add_edge g (4 - v) (4 - v - 1)
    done;
    g
  in
  let p5 = Generators.path 5 in
  List.iteri
    (fun i g ->
      let id = i + 1 in
      check_str
        (Printf.sprintf "violation witness %d" id)
        (expected_check ~id Game.Sum g)
        (Serve.call c (check_request ~id "sum" g)))
    [ p5; relabeled; p5 ]

let test_e2e_star16 () =
  (* the 16-vertex star, the paper's Theorem 1 equilibrium, has 15!
     automorphisms; every sum/max check of it pays a canonical form *)
  let sock = temp_sock "star16" in
  let srv = Serve.start (e2e_config sock) in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  Serve.with_client (Serve.Unix_sock sock) @@ fun c ->
  let star = Generators.star 16 in
  let relabeled = relabel star (Array.init 16 (fun v -> ((v * 7) + 3) mod 16)) in
  List.iteri
    (fun i (game, version, g) ->
      let id = i + 1 in
      check_str
        (Printf.sprintf "star 16 check %d" id)
        (expected_check ~id version g)
        (Serve.call c (check_request ~id game g)))
    [
      ("sum", Game.Sum, star);
      ("sum", Game.Sum, relabeled);
      ("max", Game.Max, star);
      ("max", Game.Max, relabeled);
    ]

let canon_nodes = Telemetry.counter "canon.nodes"

let test_e2e_exact_key_before_canon () =
  (* a check probes its exact text in the LRU and the atlas before it
     pays a canonical search. Server A files Petersen (an equilibrium,
     so also under its canonical key) and P12 (a violation) in a fresh
     atlas; a fresh server B over the same directory answers both texts
     from the atlas with no search. A relabeled Petersen pays the search
     once: its canonical hit is filed under its own text too. *)
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  Test_atlas.with_dir "probe-order" @@ fun dir ->
  let with_server f =
    let sock = temp_sock "probe" in
    let srv = Serve.start { (e2e_config sock) with Serve.atlas_dir = Some dir } in
    Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
    Serve.with_client (Serve.Unix_sock sock) f
  in
  let petersen = Generators.petersen () in
  let checks = [ (1, petersen); (2, Generators.path 12) ] in
  let check_all c =
    List.iter
      (fun (id, g) ->
        check_str
          (Printf.sprintf "check %d" id)
          (expected_check ~id Game.Sum g)
          (Serve.call c (check_request ~id "sum" g)))
      checks
  in
  with_server check_all;
  with_server @@ fun c ->
  let searched f =
    let before = Telemetry.counter_value canon_nodes in
    f ();
    Telemetry.counter_value canon_nodes - before
  in
  check_int "exact atlas hits search nothing" 0 (searched (fun () -> check_all c));
  let relabeled = relabel petersen (Array.init 10 (fun v -> ((v * 3) + 1) mod 10)) in
  check_true "relabeling changes the text"
    (Graph6.encode relabeled <> Graph6.encode petersen);
  let send id () =
    check_str
      (Printf.sprintf "relabeled Petersen %d" id)
      (expected_check ~id Game.Sum relabeled)
      (Serve.call c (check_request ~id "sum" relabeled))
  in
  let hits = cache_hits c in
  check_true "first relabeling searches" (searched (send 3) > 0);
  check_int "first relabeling is a cache hit" (hits + 1) (cache_hits c);
  check_int "repeated relabeling searches nothing" 0 (searched (send 4))

let test_e2e_pipelining_in_order () =
  (* N mixed requests written as one batch before any reply is read:
     the replies must come back 1:1 in request order, byte-identical to
     the direct library calls *)
  let sock = temp_sock "pipeline" in
  let srv = Serve.start (e2e_config sock) in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  check_replies (drive ~depth:120 (Serve.Unix_sock sock) ~conns:1 ~requests:120)

let test_e2e_pipelined_throughput () =
  (* 100000 requests at depth 64 over 8 connections. The 20000 req/s
     floor is far below what the event loop sustains (167k-214k req/s
     on a 2-core VM): it catches a collapse of pipelining, not runner
     noise *)
  let sock = temp_sock "throughput" in
  let srv = Serve.start (e2e_config sock) in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  let addr = Serve.Unix_sock sock in
  let requests = 100_000 in
  let t0 = Unix.gettimeofday () in
  let replies = drive ~depth:64 addr ~conns:8 ~requests in
  let rps = float_of_int requests /. (Unix.gettimeofday () -. t0) in
  check_replies replies;
  check_true "cache hits > 0" (Serve.with_client addr cache_hits > 0);
  if rps < 20_000.0 then Alcotest.failf "%.0f req/s, under the 20000 floor" rps

let test_e2e_backpressure_slow_consumer () =
  (* connection A floods pings without reading a single reply; its
     pending output crosses the tiny write_high_water, so the server
     parks it instead of buffering without bound — and connection B,
     served by the same worker pool, keeps getting answers meanwhile.
     When A finally reads, every reply is there, in order. *)
  let sock = temp_sock "backpressure" in
  let cfg = { (e2e_config sock) with Serve.workers = 1; write_high_water = 512 } in
  let srv = Serve.start cfg in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  let n = 2000 in
  Serve.with_client (Serve.Unix_sock sock) @@ fun a ->
  for i = 0 to n - 1 do
    Serve.send_line a (Printf.sprintf "{\"id\":%d,\"method\":\"ping\"}" i)
  done;
  (* B makes progress while A's replies are parked *)
  Serve.with_client (Serve.Unix_sock sock) (fun b ->
      for i = 0 to 49 do
        check_str "B served while A is parked"
          (Printf.sprintf "{\"id\":%d,\"ok\":true,\"result\":\"pong\"}" (10000 + i))
          (Serve.call b (Printf.sprintf "{\"id\":%d,\"method\":\"ping\"}" (10000 + i)))
      done);
  (* now drain A: all n replies, in order *)
  for i = 0 to n - 1 do
    check_str
      (Printf.sprintf "A reply %d in order" i)
      (Printf.sprintf "{\"id\":%d,\"ok\":true,\"result\":\"pong\"}" i)
      (Serve.recv_line a)
  done

let test_e2e_pipeline_crosses_high_water () =
  (* one batched write whose replies overflow a tiny write_high_water,
     read by an active client: the server must alternate processing and
     flushing until every buffered line is answered. Regression test for
     the stall where pump stopped at the high-water mark, the flush
     drained the output entirely (roomy sndbuf), and the complete lines
     still in the frame were never pumped again — with the rcvbuf empty,
     no event would ever re-drive the connection. *)
  let sock = temp_sock "highwater" in
  let cfg =
    { (e2e_config sock) with Serve.workers = 1; write_high_water = 256 }
  in
  let srv = Serve.start cfg in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  let n = 200 in
  Serve.with_client ~timeout:10.0 (Serve.Unix_sock sock) @@ fun c ->
  (* a single send: the whole batch reaches the server in one read, so
     per-send wake events cannot mask the stall *)
  Serve.send_line c
    (String.concat "\n"
       (List.init n (fun i -> Printf.sprintf "{\"id\":%d,\"method\":\"ping\"}" i)));
  for i = 0 to n - 1 do
    check_str
      (Printf.sprintf "reply %d past high water" i)
      (Printf.sprintf "{\"id\":%d,\"ok\":true,\"result\":\"pong\"}" i)
      (Serve.recv_line c)
  done

let test_e2e_stats_evloop () =
  let sock = temp_sock "evstats" in
  let cfg = { (e2e_config sock) with Serve.workers = 2 } in
  let srv = Serve.start cfg in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  check_int "worker_count" 2 (Serve.worker_count srv);
  Serve.with_client (Serve.Unix_sock sock) @@ fun c ->
  (* some pipelined traffic so the depth histogram has mass *)
  for i = 0 to 9 do
    Serve.send_line c (Printf.sprintf "{\"id\":%d,\"method\":\"ping\"}" i)
  done;
  for _ = 0 to 9 do
    ignore (Serve.recv_line c)
  done;
  let stats = Serve.call c "{\"id\":99,\"method\":\"stats\"}" in
  let result =
    match Jsonx.parse stats with
    | Ok r -> Option.get (Jsonx.member "result" r)
    | Error msg -> Alcotest.failf "stats reply unparseable: %s" msg
  in
  let ev = Option.get (Jsonx.member "evloop" result) in
  check_true "workers advertised" (Jsonx.member "workers" ev = Some (Jsonx.Int 2));
  (match Option.bind (Jsonx.member "wakeups" ev) Jsonx.to_int with
  | Some w when w > 0 -> ()
  | other ->
    Alcotest.failf "expected positive wakeups, got %s"
      (match other with Some w -> string_of_int w | None -> "none"));
  (match Option.bind (Jsonx.member "connections" ev) Jsonx.to_int with
  | Some k when k >= 1 -> () (* at least this client *)
  | _ -> Alcotest.fail "expected >= 1 open connection");
  let hist_mass name =
    match Jsonx.member name ev with
    | Some (Jsonx.List buckets) ->
      List.fold_left
        (fun acc b -> match b with Jsonx.Int v -> acc + v | _ -> acc)
        0 buckets
    | _ -> Alcotest.failf "missing %s histogram" name
  in
  check_true "ready-batch histogram has mass" (hist_mass "ready_batch_log2" > 0);
  check_true "pipeline-depth histogram has mass"
    (hist_mass "pipeline_depth_log2" > 0);
  (* per-shard cache stats: present, one per shard, sums match the
     aggregate counters *)
  let cache = Option.get (Jsonx.member "cache" result) in
  match Jsonx.member "shards" cache with
  | Some (Jsonx.List shards) ->
    check_int "shard record count" 8 (List.length shards);
    let sum field =
      List.fold_left
        (fun acc s ->
          acc
          + Option.value ~default:0 (Option.bind (Jsonx.member field s) Jsonx.to_int))
        0 shards
    in
    let agg field =
      Option.value ~default:(-1)
        (Option.bind (Jsonx.member field cache) Jsonx.to_int)
    in
    check_int "shard sizes sum" (agg "size") (sum "size");
    check_true "shard hits/misses reported" (sum "hits" + sum "misses" >= 0)
  | _ -> Alcotest.fail "stats cache lacks shards"

let pong id = Printf.sprintf "{\"id\":%d,\"ok\":true,\"result\":\"pong\"}" id

let ping c id =
  check_str "pong" (pong id)
    (Serve.call c (Printf.sprintf "{\"id\":%d,\"method\":\"ping\"}" id))

let test_e2e_idle_worker_accepts () =
  (* A keeps its worker busy with a long census shard; a client C that
     connects meanwhile must be accepted by the idle worker, not queued
     behind A's shard. B is there so that handing connections out
     round-robin would give C to A's worker. The shard must outlast
     C's 0.1 s head start several times over: the first 40 of the 112
     max n = 9 roots (54167 classes) take about 0.5 s on a 2-core VM,
     the whole n = 8 census only about 0.1 s. *)
  let sock = temp_sock "idle" in
  let srv = Serve.start { (e2e_config sock) with Serve.workers = 2; jobs = 1 } in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  let addr = Serve.Unix_sock sock in
  Serve.with_client addr @@ fun a ->
  Serve.with_client addr @@ fun b ->
  ping a 1;
  ping b 2;
  Serve.send_line a
    "{\"id\":3,\"method\":\"census-shard\",\"params\":{\"kind\":\"orderly\",\"game\":\"max\",\"n\":9,\"lo\":0,\"hi\":40}}";
  let census_reply = ref "" in
  let census_at = ref infinity in
  let reader =
    Thread.create
      (fun () ->
        census_reply := Serve.recv_line a;
        census_at := Unix.gettimeofday ())
      ()
  in
  Thread.delay 0.1;
  let pong_at =
    Serve.with_client addr (fun c ->
        ping c 4;
        Unix.gettimeofday ())
  in
  Thread.join reader;
  check_true "census shard answered"
    (String.starts_with ~prefix:"{\"id\":3,\"ok\":true," !census_reply);
  check_true "the new client's pong came before the census reply"
    (pong_at < !census_at)

let test_e2e_unix_and_tcp_listeners () =
  let sock = temp_sock "tcp" in
  let cfg =
    {
      (e2e_config sock) with
      Serve.addresses = [ Serve.Unix_sock sock; Serve.Tcp ("127.0.0.1", 0) ];
    }
  in
  let srv = Serve.start cfg in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  let tcp =
    match Serve.bound_addresses srv with
    | [ Serve.Unix_sock _; (Serve.Tcp (_, port) as tcp) ] ->
      check_true "ephemeral port resolved" (port > 0);
      tcp
    | _ -> Alcotest.fail "expected the unix and the tcp address, in order"
  in
  let expected = [ pong 1; expected_check ~id:2 Game.Sum star9 ] in
  List.iter
    (fun addr ->
      Serve.with_client addr @@ fun c ->
      List.iter2 (check_str "reply")
        expected
        [
          Serve.call c "{\"id\":1,\"method\":\"ping\"}";
          Serve.call c (check_request ~id:2 "sum" star9);
        ])
    [ Serve.Unix_sock sock; tcp ]

external fd_int : Unix.file_descr -> int = "%identity"

(* the lowest free descriptor number: what the next socket would get *)
let next_free_fd () =
  let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Unix.close fd;
  fd_int fd

let test_failed_start_releases_listeners () =
  let a = temp_sock "failed-start" in
  let cfg =
    {
      (e2e_config a) with
      Serve.addresses =
        [ Serve.Unix_sock a; Serve.Unix_sock "/nonexistent/dir/b.sock" ];
    }
  in
  let before = next_free_fd () in
  Alcotest.check_raises "second bind fails"
    (Unix.Unix_error (Unix.ENOENT, "bind", ""))
    (fun () -> ignore (Serve.start cfg));
  check_int "no descriptor leaked" before (next_free_fd ());
  check_false "first socket path removed" (Sys.file_exists a)

let test_failed_connect_closes_socket () =
  (* Dispatch reconnects after every failed shard: a leak here costs one
     descriptor per attempt against a dead worker *)
  let missing = Filename.concat (temp_sock "no-such-dir") "x.sock" in
  let before = next_free_fd () in
  List.iter
    (fun addr ->
      for _ = 1 to 5 do
        match Serve.connect addr with
        | c ->
          Serve.close_client c;
          Alcotest.failf "connect to %a succeeded" Serve.pp_address addr
        | exception (Unix.Unix_error _ | Invalid_argument _) -> ()
      done)
    [
      Serve.Unix_sock missing;
      Serve.Tcp ("127.0.0.1", 1);
      Serve.Tcp ("no-such-host.invalid", 5);
    ];
  check_int "no descriptor leaked" before (next_free_fd ())

let test_nonsense_deadlines_refused () =
  (* a nan deadline never fires and a slice below 1 means nothing: both
     are refused before a socket is bound, or opened by a client *)
  let sock = temp_sock "refused" in
  let start_fails msg cfg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Serve.start cfg));
    check_false "nothing bound" (Sys.file_exists sock)
  in
  let cfg = e2e_config sock in
  start_fails "Serve.start: request_timeout must be > 0 (got nan)"
    { cfg with Serve.request_timeout = Float.nan };
  start_fails "Serve.start: request_timeout must be > 0 (got 0)"
    { cfg with Serve.request_timeout = 0.0 };
  start_fails "Serve.start: census_slice < 1" { cfg with Serve.census_slice = 0 };
  start_fails "Serve.start: census_slice < 1" { cfg with Serve.census_slice = -1 };
  (* nothing listens at [sock]: a connect attempt would raise ENOENT *)
  List.iter
    (fun (timeout, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          Serve.close_client (Serve.connect ~timeout (Serve.Unix_sock sock))))
    [
      (Float.nan, "Serve.connect: timeout must be > 0 (got nan)");
      (0.0, "Serve.connect: timeout must be > 0 (got 0)");
    ];
  (* infinity is no deadline, on both sides *)
  let srv = Serve.start { cfg with Serve.request_timeout = infinity } in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  Serve.with_client ~timeout:infinity (Serve.Unix_sock sock) (fun c -> ping c 1)

let suite =
  [
    case "jsonx: roundtrip" test_jsonx_roundtrip;
    case "jsonx: whitespace and numbers" test_jsonx_whitespace_and_numbers;
    case "jsonx: strings and escapes" test_jsonx_strings;
    case "jsonx: rejects malformed" test_jsonx_rejects;
    case "jsonx: total on fuzz" test_jsonx_total_fuzz;
    case "rpc: parses valid requests" test_rpc_parse_ok;
    case "rpc: protocol versioning" test_rpc_protocol_version;
    case "rpc: error codes" test_rpc_parse_errors;
    case "rpc: envelopes" test_rpc_render;
    case "e2e: concurrent clients, byte-identical replies" test_e2e_concurrent_clients;
    case "e2e: census shards merge like direct calls" test_e2e_census_shard;
    case "e2e: legacy and variant clients" test_e2e_legacy_and_variant_clients;
    case "e2e: request and graph limits" test_e2e_limits;
    case "e2e: violation witnesses are labeling-exact" test_e2e_violation_not_canonically_cached;
    case "e2e: pipelined replies in order, byte-identical" test_e2e_pipelining_in_order;
    case "e2e: 100000 pipelined requests, 20000 req/s floor" test_e2e_pipelined_throughput;
    case "e2e: slow consumer does not stall others" test_e2e_backpressure_slow_consumer;
    case "e2e: pipelined batch crosses write high water" test_e2e_pipeline_crosses_high_water;
    case "e2e: stats reports event-loop telemetry" test_e2e_stats_evloop;
    case "e2e: 16-vertex star, as given and relabeled" test_e2e_star16;
    case "e2e: exact text probed before the canonical form" test_e2e_exact_key_before_canon;
    case "e2e: an idle worker takes the new connection" test_e2e_idle_worker_accepts;
    case "e2e: unix and tcp listeners answer alike" test_e2e_unix_and_tcp_listeners;
    case "e2e: a failed start releases its listeners" test_failed_start_releases_listeners;
    case "client: a failed connect leaks no descriptor" test_failed_connect_closes_socket;
    case "e2e: nan or non-positive deadlines, slices < 1 refused"
      test_nonsense_deadlines_refused;
  ]
