(* Load generator for the serving layer: an in-process server on a temp
   Unix socket, hammered by concurrent client threads over a workload
   mix chosen to exercise both cache paths.

     dune exec bench/loadgen.exe                      -- 10000 requests, 4 clients
     dune exec bench/loadgen.exe -- --requests 1000 --clients 2
     dune exec bench/loadgen.exe -- --malformed       -- mix in invalid lines
     dune exec bench/loadgen.exe -- --pipeline 64 --conns 8
                                                      -- pipelined mode: each
                                                         connection writes 64
                                                         request lines in one
                                                         syscall, then reads the
                                                         64 replies in order
     dune exec bench/loadgen.exe -- --pipeline 64 --min-rps 60000
                                                      -- also fail (exit 1) under
                                                         a throughput floor
     dune exec bench/loadgen.exe -- --atlas DIR       -- atlas mode: run the
                                                         workload twice against
                                                         fresh servers sharing
                                                         the atlas directory (a
                                                         cold pass populates it,
                                                         a warm pass reopens it),
                                                         assert the replies are
                                                         byte-identical, and gate
                                                         on warm atlas hits
                                                         (--min-atlas-hits N,
                                                         default 1)

   Workload classes, round-robin by request index:
     check-star    sum-check of a star on 9 vertices with a rotating
                   center — 9 distinct graph6 strings, one canonical
                   form: one miss, then each other text's first send is
                   a canonical cache hit and every repeat an exact-key
                   hit
     check-torus   max-check of the 3x3 torus, identical bytes every
                   time — exact-key cache hits
     check-legacy  the same torus max-check spelled the pre-registry
                   way (a "version" field instead of "game") — old
                   clients must keep getting the exact same bytes
     check-alpha   alpha:1-check of the rotating star — the variant
                   game through the same entry point
     info-path     info on the 8-path
     ping          protocol floor
     malformed     (only with --malformed) unparseable line; the server
                   must answer a structured error and keep the
                   connection alive

   Exit status is 1 if any well-formed request got an error reply, a
   mismatched id, or no reply at all — the acceptance gate for the
   serving layer. *)

let requests = ref 10_000

let clients = ref 4

let jobs = ref 2

let malformed = ref false

(* pipelined mode: 0 = off (one request in flight per client, the legacy
   latency-shaped load); N > 0 = each connection writes N request lines
   in a single syscall and then reads the N replies in order *)
let pipeline = ref 0

let conns = ref 0 (* pipelined connections; 0 = --clients *)

let min_rps = ref 0.0 (* throughput floor; 0 = no gate *)

(* atlas mode: cold pass + warm pass against fresh servers sharing this
   directory, byte-compared reply for reply *)
let atlas_dir = ref None

let min_atlas_hits = ref 1 (* warm-pass atlas hit floor in atlas mode *)

let () =
  let rec scan = function
    | [] -> ()
    | "--requests" :: v :: rest ->
      requests := int_of_string v;
      scan rest
    | "--clients" :: v :: rest ->
      clients := int_of_string v;
      scan rest
    | "--jobs" :: v :: rest ->
      jobs := int_of_string v;
      scan rest
    | "--pipeline" :: v :: rest ->
      pipeline := int_of_string v;
      scan rest
    | "--conns" :: v :: rest ->
      conns := int_of_string v;
      scan rest
    | "--min-rps" :: v :: rest ->
      min_rps := float_of_string v;
      scan rest
    | "--malformed" :: rest ->
      malformed := true;
      scan rest
    | "--atlas" :: dir :: rest ->
      atlas_dir := Some dir;
      scan rest
    | "--min-atlas-hits" :: v :: rest ->
      min_atlas_hits := int_of_string v;
      scan rest
    | arg :: _ ->
      Printf.eprintf
        "loadgen: unknown argument %s (expected --requests N, --clients N, \
         --jobs N, --pipeline DEPTH, --conns K, --min-rps F, --malformed, \
         --atlas DIR, --min-atlas-hits N)\n"
        arg;
      exit 2
  in
  scan (List.tl (Array.to_list Sys.argv))

(* --- workload ------------------------------------------------------------ *)

let star9_centered c =
  let g = Graph.create 9 in
  for v = 0 to 8 do
    if v <> c then Graph.add_edge g c v
  done;
  Graph6.encode g

let torus3_g6 = Graph6.encode (Constructions.torus 3)

let path8_g6 = Graph6.encode (Generators.path 8)

type cls = { name : string; well_formed : bool; request : id:int -> int -> string }

let obj fields = Jsonx.to_string (Jsonx.Obj fields)

let check_req_field ~id field game g6 =
  obj
    [
      ("id", Jsonx.Int id);
      ("method", Jsonx.Str "check");
      ( "params",
        Jsonx.Obj [ (field, Jsonx.Str game); ("graph6", Jsonx.Str g6) ] );
    ]

let check_req ~id game g6 = check_req_field ~id "game" game g6

let classes =
  [
    {
      name = "check-star";
      well_formed = true;
      request = (fun ~id i -> check_req ~id "sum" (star9_centered (i mod 9)));
    };
    {
      name = "check-torus";
      well_formed = true;
      request = (fun ~id _ -> check_req ~id "max" torus3_g6);
    };
    {
      name = "check-legacy";
      well_formed = true;
      request = (fun ~id _ -> check_req_field ~id "version" "max" torus3_g6);
    };
    {
      name = "check-alpha";
      well_formed = true;
      request = (fun ~id i -> check_req ~id "alpha:1" (star9_centered (i mod 9)));
    };
    {
      name = "info-path";
      well_formed = true;
      request =
        (fun ~id _ ->
          obj
            [
              ("id", Jsonx.Int id);
              ("method", Jsonx.Str "info");
              ("params", Jsonx.Obj [ ("graph6", Jsonx.Str path8_g6) ]);
            ]);
    };
    {
      name = "ping";
      well_formed = true;
      request =
        (fun ~id _ -> obj [ ("id", Jsonx.Int id); ("method", Jsonx.Str "ping") ]);
    };
  ]
  @
  if !malformed then
    [
      {
        name = "malformed";
        well_formed = false;
        request =
          (fun ~id:_ i ->
            match i mod 3 with
            | 0 -> "this is not json"
            | 1 -> "{\"method\":42}"
            | _ -> "{\"method\":\"no-such-method\"}");
      };
    ]
  else []

let n_classes = List.length classes

let class_of i = List.nth classes (i mod n_classes)

(* --- measurement --------------------------------------------------------- *)

type tally = {
  mutable count : int;
  mutable total_ns : float;
  mutable max_ns : float;
  mutable errors : int; (* well-formed requests answered ok:false *)
  mutable bad : int; (* wrong id, unparseable reply, transport failure *)
}

let fresh_tally () =
  { count = 0; total_ns = 0.0; max_ns = 0.0; errors = 0; bad = 0 }

(* a malformed request may omit the id, so only well-formed classes can
   demand the echo matches *)
let response_ok ~well_formed id line =
  match Jsonx.parse line with
  | Error _ -> `Bad
  | Ok r ->
    if well_formed && Jsonx.member "id" r <> Some (Jsonx.Int id) then `Bad
    else if Jsonx.member "ok" r = Some (Jsonx.Bool true) then `Ok
    else `Err

(* [replies.(i)] collects the reply bytes for request [i] — each index
   has exactly one writer, so the array needs no lock. Atlas mode
   byte-compares the cold and warm arrays. *)
let client_thread addr lo hi tallies replies =
  Serve.with_client addr @@ fun c ->
  for i = lo to hi - 1 do
    let cls = class_of i in
    let t = tallies.(i mod n_classes) in
    let line = cls.request ~id:i i in
    let t0 = Unix.gettimeofday () in
    match Serve.call c line with
    | reply ->
      replies.(i) <- reply;
      let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
      t.count <- t.count + 1;
      t.total_ns <- t.total_ns +. ns;
      if ns > t.max_ns then t.max_ns <- ns;
      (match (response_ok ~well_formed:cls.well_formed i reply, cls.well_formed) with
      | `Ok, true -> ()
      | `Err, false -> () (* malformed lines are supposed to get errors *)
      | `Err, true -> t.errors <- t.errors + 1
      | `Ok, false -> t.bad <- t.bad + 1
      | `Bad, _ -> t.bad <- t.bad + 1)
    | exception e ->
      t.count <- t.count + 1;
      t.bad <- t.bad + 1;
      Printf.eprintf "loadgen: request %d died: %s\n" i (Printexc.to_string e)
  done

(* Pipelined: batch [depth] request lines into one newline-joined write
   (Serve.send_line appends the final newline, so the batch reaches the
   kernel in a single syscall), then read the [depth] replies in order.
   Response order is the server's per-connection contract, so reply [k]
   must carry the id of request [k] — a reordering shows up as [bad]. *)
let pipelined_thread addr lo hi depth tallies out =
  Serve.with_client addr @@ fun c ->
  let i = ref lo in
  while !i < hi do
    let batch = min depth (hi - !i) in
    let lines = List.init batch (fun k ->
        let idx = !i + k in
        (class_of idx).request ~id:idx idx)
    in
    (* read replies with an explicit in-order loop: List.init's
       application order is unspecified, and reply k must be matched
       against request lo+k *)
    let recv_batch n =
      let acc = ref [] in
      for _ = 1 to n do
        acc := Serve.recv_line c :: !acc
      done;
      List.rev !acc
    in
    let t0 = Unix.gettimeofday () in
    (match
       Serve.send_line c (String.concat "\n" lines);
       recv_batch batch
     with
    | replies ->
      let ns_each =
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch
      in
      List.iteri
        (fun k reply ->
          let idx = !i + k in
          out.(idx) <- reply;
          let cls = class_of idx in
          let t = tallies.(idx mod n_classes) in
          t.count <- t.count + 1;
          t.total_ns <- t.total_ns +. ns_each;
          if ns_each > t.max_ns then t.max_ns <- ns_each;
          match (response_ok ~well_formed:cls.well_formed idx reply, cls.well_formed) with
          | `Ok, true -> ()
          | `Err, false -> ()
          | `Err, true -> t.errors <- t.errors + 1
          | `Ok, false -> t.bad <- t.bad + 1
          | `Bad, _ -> t.bad <- t.bad + 1)
        replies
    | exception e ->
      List.iteri
        (fun k _ ->
          let t = tallies.((!i + k) mod n_classes) in
          t.count <- t.count + 1;
          t.bad <- t.bad + 1)
        lines;
      Printf.eprintf "loadgen: pipelined batch at %d died: %s\n" !i
        (Printexc.to_string e));
    i := !i + batch
  done

(* --- run ----------------------------------------------------------------- *)

type pass = {
  p_wall : float;
  p_total : int;
  p_errors : int;
  p_bad : int;
  p_cache_hits : int;
  p_cache_misses : int;
  p_atlas_hits : int; (* 0 when the server runs without an atlas *)
  p_replies : string array; (* reply bytes by request index *)
}

(* One complete load run against a fresh server: start, hammer, collect
   the server's own stats, stop. Atlas mode calls this twice with the
   same directory — fresh server each time, so the in-memory cache
   starts empty and any warm speedup/hit is the atlas's alone. *)
let run_pass ~tag ~pass_atlas_dir () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bncg-loadgen-%d%s.sock" (Unix.getpid ())
         (if tag = "" then "" else "-" ^ tag))
  in
  let cfg =
    {
      Serve.default_config with
      Serve.addresses = [ Serve.Unix_sock sock ];
      jobs = !jobs;
      atlas_dir = pass_atlas_dir;
    }
  in
  let srv = Serve.start cfg in
  let addr = List.hd (Serve.bound_addresses srv) in
  let n = !requests in
  let depth = max 0 !pipeline in
  let c =
    if depth > 0 then max 1 (if !conns > 0 then !conns else !clients)
    else max 1 !clients
  in
  let label = if tag = "" then "" else Printf.sprintf " [%s]" tag in
  if depth > 0 then
    Printf.printf
      "loadgen%s: %d requests pipelined depth %d over %d conns, %d pool jobs, \
       %d classes (%d workers)\n%!"
      label n depth c !jobs n_classes (Serve.worker_count srv)
  else
    Printf.printf "loadgen%s: %d requests, %d clients, %d pool jobs, %d classes\n%!"
      label n c !jobs n_classes;
  (* per-thread tallies, merged after join: no cross-thread mutation *)
  let per_thread = Array.init c (fun _ -> Array.init n_classes (fun _ -> fresh_tally ())) in
  let replies = Array.make n "" in
  let wall0 = Unix.gettimeofday () in
  let threads =
    List.init c (fun t ->
        let lo = t * n / c and hi = (t + 1) * n / c in
        Thread.create
          (fun () ->
            if depth > 0 then pipelined_thread addr lo hi depth per_thread.(t) replies
            else client_thread addr lo hi per_thread.(t) replies)
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. wall0 in
  (* cache stats from the server itself, before shutdown *)
  let stats_line =
    Serve.with_client addr (fun cl ->
        Serve.call cl "{\"id\":\"stats\",\"method\":\"stats\"}")
  in
  Serve.stop srv;
  let merged = Array.init n_classes (fun _ -> fresh_tally ()) in
  Array.iter
    (fun ts ->
      Array.iteri
        (fun k t ->
          merged.(k).count <- merged.(k).count + t.count;
          merged.(k).total_ns <- merged.(k).total_ns +. t.total_ns;
          if t.max_ns > merged.(k).max_ns then merged.(k).max_ns <- t.max_ns;
          merged.(k).errors <- merged.(k).errors + t.errors;
          merged.(k).bad <- merged.(k).bad + t.bad)
        ts)
    per_thread;
  Printf.printf "\n%-12s %10s %14s %14s %7s %5s\n" "class" "requests"
    "mean ns" "max ns" "errors" "bad";
  List.iteri
    (fun k cls ->
      let t = merged.(k) in
      Printf.printf "%-12s %10d %14.0f %14.0f %7d %5d\n" cls.name t.count
        (if t.count = 0 then 0.0 else t.total_ns /. float_of_int t.count)
        t.max_ns t.errors t.bad)
    classes;
  let member_int path r =
    Option.value ~default:(-1)
      (Option.bind
         (List.fold_left
            (fun acc k -> Option.bind acc (Jsonx.member k))
            (Some r) path)
         Jsonx.to_int)
  in
  let hits, misses, atlas_hits =
    match Jsonx.parse stats_line with
    | Ok r ->
      ( member_int [ "result"; "cache"; "hits" ] r,
        member_int [ "result"; "cache"; "misses" ] r,
        max 0 (member_int [ "result"; "atlas"; "hits" ] r) )
    | Error _ -> (-1, -1, 0)
  in
  let total = Array.fold_left (fun a t -> a + t.count) 0 merged in
  let errors = Array.fold_left (fun a t -> a + t.errors) 0 merged in
  let bad = Array.fold_left (fun a t -> a + t.bad) 0 merged in
  Printf.printf
    "\ntotal%s: %d requests in %.2f s (%.0f req/s); cache hits %d, misses %d%s\n"
    label total wall
    (float_of_int total /. wall)
    hits misses
    (match pass_atlas_dir with
    | None -> ""
    | Some _ -> Printf.sprintf "; atlas hits %d" atlas_hits);
  {
    p_wall = wall;
    p_total = total;
    p_errors = errors;
    p_bad = bad;
    p_cache_hits = hits;
    p_cache_misses = misses;
    p_atlas_hits = atlas_hits;
    p_replies = replies;
  }

(* gates shared by every pass; any failure is the process exit status *)
let gate_pass ~tag p =
  let label = if tag = "" then "" else Printf.sprintf " [%s]" tag in
  if p.p_total <> !requests then begin
    Printf.eprintf "loadgen%s: sent %d requests but tallied %d\n" label !requests
      p.p_total;
    exit 1
  end;
  if p.p_errors > 0 || p.p_bad > 0 then begin
    Printf.eprintf
      "loadgen%s: FAILED — %d well-formed requests errored, %d bad replies\n"
      label p.p_errors p.p_bad;
    exit 1
  end;
  if p.p_cache_hits <= 0 then begin
    Printf.eprintf
      "loadgen%s: FAILED — expected cache hits > 0, server reports %d\n" label
      p.p_cache_hits;
    exit 1
  end;
  let rps = float_of_int p.p_total /. p.p_wall in
  if !min_rps > 0.0 && rps < !min_rps then begin
    Printf.eprintf
      "loadgen%s: FAILED — %.0f req/s under the --min-rps %.0f floor\n" label rps
      !min_rps;
    exit 1
  end

let () =
  match !atlas_dir with
  | None ->
    let p = run_pass ~tag:"" ~pass_atlas_dir:None () in
    gate_pass ~tag:"" p;
    print_endline "loadgen: OK"
  | Some dir ->
    (* cold pass populates the atlas, warm pass reopens it behind an
       empty in-memory cache; the reply streams must match byte for
       byte, and the warm pass must actually hit the store *)
    Printf.printf "loadgen: atlas mode against %s (cold pass, then warm pass)\n%!"
      dir;
    let cold = run_pass ~tag:"cold" ~pass_atlas_dir:(Some dir) () in
    let warm = run_pass ~tag:"warm" ~pass_atlas_dir:(Some dir) () in
    gate_pass ~tag:"cold" cold;
    gate_pass ~tag:"warm" warm;
    let mismatches = ref 0 in
    Array.iteri
      (fun i c ->
        if not (String.equal c warm.p_replies.(i)) then begin
          incr mismatches;
          if !mismatches = 1 then
            Printf.eprintf
              "loadgen: reply %d differs across passes:\n  cold: %s\n  warm: %s\n"
              i c warm.p_replies.(i)
        end)
      cold.p_replies;
    if !mismatches > 0 then begin
      Printf.eprintf
        "loadgen: FAILED — %d replies differ between the cold and warm passes\n"
        !mismatches;
      exit 1
    end;
    Printf.printf "atlas: %d replies byte-identical across passes\n"
      (Array.length cold.p_replies);
    if warm.p_atlas_hits < !min_atlas_hits then begin
      Printf.eprintf
        "loadgen: FAILED — warm pass reported %d atlas hits, floor is %d\n"
        warm.p_atlas_hits !min_atlas_hits;
      exit 1
    end;
    print_endline "loadgen: OK"
