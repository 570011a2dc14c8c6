(* serve-hot, serve-cold and serve-warm: a closed-loop client against a
   `bncg serve` equilibrium server running as a child process.

   Load shape: one caller on one connection with one request in flight,
   against a server with one event-loop worker and one pool job. Client
   and server take turns, so each holds at most one of the two cores. A
   second caller would make every request wait for the other's, and the
   waiting, not the server, set the tail: over ten seeds the warm p90's
   quartile spread was 0.205 of its median with two callers, 0.093 with
   one.

   Why three workloads:
     serve-hot   a six-class mix of a few graphs: nearly every request is
                 an LRU hit, so transport, framing, JSON parse and render
                 dominate and the kernels do nothing;
     serve-cold  the random graphs the hunt path starts from, far more
                 than the 4096-entry LRU: every request pays Canon +
                 Equilibrium.check + render + atlas append (the write
                 side); 1 in 8 is a relabeled catalogued equilibrium,
                 which the canonical cache answers;
     serve-warm  the first requests of the cold stream, replayed in a
                 cycle against a fresh server that reopens the atlas the
                 cold pass wrote: the LRU misses and the atlas answers
                 (the read side). *)

type req =
  | Check of { game : Game.t; field : string; g : Graph.t }
  | Info of Graph.t
  | Ping

let line_of ~id = function
  | Check { game; field; g } ->
    Rpc.render_request ~id:(Jsonx.Int id) ~meth:"check"
      (Jsonx.Obj
         [ (field, Jsonx.Str (Game.to_string game)); ("graph6", Jsonx.Str (Graph6.encode g)) ])
  | Info g ->
    Rpc.render_request ~id:(Jsonx.Int id) ~meth:"info"
      (Jsonx.Obj [ ("graph6", Jsonx.Str (Graph6.encode g)) ])
  | Ping -> Rpc.render_request ~id:(Jsonx.Int id) ~meth:"ping" (Jsonx.Obj [])

(* The oracle: the reply computed straight from the library and the Rpc
   builders, with no cache, canonical form or atlas in between. *)
let expected_result = function
  | Check { game; g; _ } ->
    Jsonx.to_string (Rpc.check_result game (Equilibrium.check game g) g)
  | Info g -> Jsonx.to_string (Rpc.info_result g)
  | Ping -> Jsonx.to_string Rpc.ping_result

(* --- streams ------------------------------------------------------------- *)

let relabel rng g =
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  Prng.shuffle_in_place rng perm;
  Graph.of_edges n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))

let star_centered n c =
  let g = Graph.create n in
  for v = 0 to n - 1 do
    if v <> c then Graph.add_edge g c v
  done;
  g

let alpha1 = Result.get_ok (Game.of_string "alpha:1")

(* loadgen's six classes, the star ones over nine centers: the stream
   repeats every [hot_period] requests. The seed only relabels graphs. *)
let hot_period = 6 * 9

let hot_stream seed =
  let rng = Prng.substream seed (-3) in
  let torus = relabel rng (Constructions.torus 3) in
  let path = relabel rng (Generators.path 8) in
  let shift = Prng.int rng 9 in
  let stars = Array.init 9 (fun c -> star_centered 9 ((c + shift) mod 9)) in
  fun i ->
    let star = stars.(i / 6 mod 9) in
    match i mod 6 with
    | 0 -> Check { game = Game.Sum; field = "game"; g = star }
    | 1 -> Check { game = Game.Max; field = "game"; g = torus }
    | 2 -> Check { game = Game.Max; field = "version"; g = torus }
    | 3 -> Check { game = alpha1; field = "game"; g = star }
    | 4 -> Info path
    | _ -> Ping

(* Where the cold stream comes from. No client in the repository sends
   check traffic in bulk, so the stream is built from graphs the
   repository itself produces:
   - 7 in 8 are the random graphs [Hunt.run] restarts from (a random tree
     or a connected G(n, n + U[0,n)), lib/ncg/hunt.ml), the candidates
     an equilibrium hunt scores;
   - 1 in 8 is a random relabeling of an equilibrium from the catalogues
     of the lower-bound and audit experiments (lib/expt/exp_lower_bounds.ml,
     lib/expt/exp_audit.ml), which only the canonical-form cache can
     match.
   Synthetic, chosen to stress the layers, not measured from any user:
   n = 10..16 (the hunt's default n up to Canon's 16-vertex cap, so every
   request pays a canonical form), the 1-in-8 ratio and the even sum/max
   split.

   The catalogue's stars stop at 9 vertices: Canon's search on a
   relabeled star walks its (n-1)! automorphisms (9 vertices: ~8 ms,
   11: ~1 s, 16: hours). The wheel, friendship and cocktail-party graphs
   are left out for the same reason (5-25 ms each). The tori have 18 and
   32 vertices, past Canon's cap, so their relabelings are served by
   exact key only. *)
let known_equilibria =
  lazy
    (Array.of_list
       (List.filter
          (fun (game, g) -> Equilibrium.is_equilibrium game g)
          (List.concat_map
             (fun g -> [ (Game.Sum, g); (Game.Max, g) ])
             [
               Generators.star 8;
               Generators.star 9;
               Generators.petersen ();
               Constructions.sum_diameter3_witness;
               Constructions.sum_diameter3_minimal;
               Polarity.polarity_graph 2;
               Polarity.polarity_graph 3;
               Constructions.torus 3;
               Constructions.torus 4;
             ])))

let hunt_start rng n =
  if Prng.bool rng then Random_graphs.tree rng n
  else Random_graphs.connected_gnm rng n (n + Prng.int rng n)

let cold_stream seed i =
  let rng = Prng.substream seed i in
  if i mod 8 = 7 then begin
    let eqs = Lazy.force known_equilibria in
    let game, g = eqs.(Prng.int rng (Array.length eqs)) in
    Check { game; field = "game"; g = relabel rng g }
  end
  else begin
    let n = 10 + Prng.int rng 7 in
    let g = hunt_start rng n in
    Check { game = (if Prng.bool rng then Game.Sum else Game.Max); field = "game"; g }
  end

(* --- server child ------------------------------------------------------ *)

(* The server, in the child: the same [Serve] a `bncg serve` process runs,
   on one worker and one pool job. It stops cleanly (flushing the atlas)
   when the parent closes its stdin. A server whose state nobody reads
   afterwards is told to quit instead, which skips the shutdown's poll
   timeouts. *)
let serve_child ~sock ~atlas ~telemetry =
  if telemetry then Telemetry.set_enabled true;
  let srv =
    Serve.start
      {
        Serve.default_config with
        Serve.addresses = [ Serve.Unix_sock sock ];
        jobs = 1;
        workers = 1;
        atlas_dir = atlas;
      }
  in
  Measure.announce_ready ();
  match Measure.wait_for_parent () with
  | `Stop -> Serve.stop srv
  | `Quit -> Unix._exit 0

let fresh =
  let k = ref 0 in
  fun (cfg : Workload.cfg) prefix ->
    incr k;
    Filename.concat cfg.work (Printf.sprintf "%s%d" prefix !k)

let start_server cfg ~atlas ~telemetry =
  let sock = fresh cfg "s" ^ ".sock" in
  let t, child =
    Measure.spawn_ready
      ([ "--serve"; sock ]
      @ (match atlas with Some d -> [ "--atlas"; d ] | None -> [])
      @ if telemetry then [ "--telemetry" ] else [])
  in
  (t, child, Serve.Unix_sock sock)

(* --- closed loop ------------------------------------------------------- *)

type log = {
  idx : int Vec.t;
  lat_ns : int Vec.t;
  replies : string Vec.t;  (** kept only when not checked inline *)
  mutable bad : int;  (** replies that failed the inline check *)
  mutable lost : int;  (** requests that got no reply *)
}

(* One caller with one request in flight: request [index k] goes out when
   the reply to the one before it is in, until [index k] is [None] or the
   window closes (after at least one request). With [check], each reply is checked as it arrives and
   dropped (cheap oracles, long streams); without, replies are kept for a
   check after the window. [milestone] runs once, after the [k0]-th
   reply. *)
let closed_loop addr ~seconds ~index ~line ~check ~milestone:(k0, at_milestone) =
  let log =
    {
      idx = Vec.create ~dummy:0 ();
      lat_ns = Vec.create ~dummy:0 ();
      replies = Vec.create ~dummy:"" ();
      bad = 0;
      lost = 0;
    }
  in
  let t0 = Measure.now_ns () in
  let deadline = t0 + int_of_float (Float.min seconds 1e6 *. 1e9) in
  (try
     Serve.with_client addr (fun c ->
         let rec go k =
           match index k with
           | Some i when k = 0 || Measure.now_ns () < deadline ->
             let l = line i in
             let s = Measure.now_ns () in
             let reply = Serve.call c l in
             Vec.push log.lat_ns (Measure.now_ns () - s);
             Vec.push log.idx i;
             (match check with
             | None -> Vec.push log.replies reply
             | Some ok -> if not (ok i reply) then log.bad <- log.bad + 1);
             if k + 1 = k0 then at_milestone ();
             go (k + 1)
           | _ -> ()
         in
         go 0)
   with e ->
     log.lost <- log.lost + 1;
     Printf.eprintf "client: %s\n%!" (Printexc.to_string e));
  (log, Measure.seconds_since t0)

let stats addr =
  let line =
    Serve.with_client addr (fun c ->
        Serve.call c (Rpc.render_request ~id:(Jsonx.Str "stats") ~meth:"stats" (Jsonx.Obj [])))
  in
  let j = Result.get_ok (Jsonx.parse line) in
  fun path ->
    Option.value ~default:0
      (Option.bind
         (List.fold_left (fun acc k -> Option.bind acc (Jsonx.member k)) (Some j) ("result" :: path))
         Jsonx.to_int)

(* --- one measured pass ------------------------------------------------- *)

type pass = {
  setup : float array;  (** spawn-to-ready seconds of each fresh server *)
  lat_s : float array;
  wall : float;
  rss_mb : float;  (** the measured server's VmHWM *)
  idx : int array;  (** stream indices sent, in order *)
  replies : string array;  (** their replies when kept, else empty *)
  bad : int;  (** replies that failed the inline check *)
  lost : int;  (** requests that got no reply *)
  stat : string list -> int;  (** the server's [stats] reply, by path *)
}

(* The server's memory is read after a fixed number of requests, not at
   the end of the window: the cold server's atlas index grows with every
   request, so a faster server would otherwise read as a fatter one. *)
let rss_after (cfg : Workload.cfg) = if cfg.toy then 100 else 20_000

(* Set-up trials spawn fresh servers (each on [atlas ()]) and stop them,
   in one burst before the measured server and one after it: a burst
   takes about 10 ms and catches one state of the machine, two bursts a
   window apart catch two. (Trials cannot run during the window: the
   atlas lets one server at a time open it.) Only a pass whose atlas is
   used afterwards ([keep_atlas]) waits for the server's clean
   shutdown. *)
let pass cfg ~atlas ~telemetry ?(keep_atlas = false) ?(warmup = fun _ -> ()) ?check ~seconds
    ~index ~line () =
  let setup_burst () =
    Measure.setup_times (fun () ->
        let t, c, _ = start_server cfg ~atlas:(atlas ()) ~telemetry in
        Measure.quit c;
        t)
  in
  let before = setup_burst () in
  let _, child, addr = start_server cfg ~atlas:(atlas ()) ~telemetry in
  let measured =
    Fun.protect
      ~finally:(fun () -> if keep_atlas then Measure.reap child else Measure.quit child)
      (fun () ->
        warmup addr;
        let rss_mb = ref None in
        let read_rss () =
          rss_mb := Some (Measure.peak_rss_mb (string_of_int child.Measure.pid))
        in
        let log, wall =
          closed_loop addr ~seconds ~index ~line ~check ~milestone:(rss_after cfg, read_rss)
        in
        if !rss_mb = None then read_rss ();
        let stat = stats addr in
        fun setup ->
          {
            setup;
            lat_s = Array.map (fun ns -> float_of_int ns *. 1e-9) (Vec.to_array log.lat_ns);
            wall;
            rss_mb = Option.get !rss_mb;
            idx = Vec.to_array log.idx;
            replies = Vec.to_array log.replies;
            bad = log.bad;
            lost = log.lost;
            stat;
          })
  in
  measured (Array.append before (setup_burst ()))

(* --- in-process replay ------------------------------------------------- *)

type split = {
  mutable parse : int;
  mutable lru : int;
  mutable canon : int;
  mutable check : int;
  mutable render : int;
  mutable atlas_find : int;
  mutable atlas_add : int;
}

let zero sp =
  sp.parse <- 0;
  sp.lru <- 0;
  sp.canon <- 0;
  sp.check <- 0;
  sp.render <- 0;
  sp.atlas_find <- 0;
  sp.atlas_add <- 0

(* Replays request lines through the layers in [Serve]'s call order —
   parse, canonical-form memo, LRU, atlas, kernel, render, LRU and atlas
   inserts — over the same cache sizes, timing each public call. Returns
   the reply bytes, which must equal the server's. *)
let replayer ~atlas =
  let cache = Lru_sharded.create ~capacity:Serve.default_config.Serve.cache_capacity () in
  let canon_memo = Lru_sharded.create ~capacity:Serve.default_config.Serve.cache_capacity () in
  let sp =
    { parse = 0; lru = 0; canon = 0; check = 0; render = 0; atlas_find = 0; atlas_add = 0 }
  in
  let time add f =
    let t0 = Measure.now_ns () in
    let r = f () in
    add (Measure.now_ns () - t0);
    r
  in
  let lru f = time (fun d -> sp.lru <- sp.lru + d) f in
  let render f = time (fun d -> sp.render <- sp.render + d) f in
  let atlas_find key =
    match atlas with
    | None -> None
    | Some a ->
      let r = time (fun d -> sp.atlas_find <- sp.atlas_find + d) (fun () -> Atlas.find a key) in
      Option.iter (fun r -> lru (fun () -> Lru_sharded.add cache key r)) r;
      r
  in
  let atlas_add key r =
    Option.iter
      (fun a ->
        time (fun d -> sp.atlas_add <- sp.atlas_add + d) (fun () -> Atlas.add a ~key ~value:r))
      atlas
  in
  let probe keys =
    let in_lru =
      List.fold_left
        (fun acc k -> match acc with Some _ -> acc | None -> lru (fun () -> Lru_sharded.find cache k))
        None keys
    in
    match in_lru with
    | Some _ -> in_lru
    | None ->
      List.fold_left (fun acc k -> match acc with Some _ -> acc | None -> atlas_find k) None keys
  in
  let check game g6 g =
    let name = Game.to_string game in
    let exact = Printf.sprintf "check:%s:%s" name g6 in
    let canon_key =
      if Game.is_basic game && Graph.n g <= Canon.max_search_vertices then begin
        let cf =
          match lru (fun () -> Lru_sharded.find canon_memo g6) with
          | Some cf -> cf
          | None ->
            let cf =
              time (fun d -> sp.canon <- sp.canon + d) (fun () -> Canon.canonical_form g)
            in
            lru (fun () -> Lru_sharded.add canon_memo g6 cf);
            cf
        in
        Some (Printf.sprintf "check:%s:canon:%s" name cf)
      end
      else None
    in
    match probe (exact :: Option.to_list canon_key) with
    | Some r -> r
    | None ->
      let verdict =
        time (fun d -> sp.check <- sp.check + d) (fun () -> Equilibrium.check game g)
      in
      let r = render (fun () -> Jsonx.to_string (Rpc.check_result game verdict g)) in
      let keys =
        exact :: (if Rpc.verdict_is_invariant verdict then Option.to_list canon_key else [])
      in
      List.iter
        (fun k ->
          lru (fun () -> Lru_sharded.add cache k r);
          atlas_add k r)
        keys;
      r
  in
  let info g6 g =
    let key = "info:" ^ g6 in
    match probe [ key ] with
    | Some r -> r
    | None ->
      let r = render (fun () -> Jsonx.to_string (Rpc.info_result g)) in
      lru (fun () -> Lru_sharded.add cache key r);
      atlas_add key r;
      r
  in
  let replay line =
    match time (fun d -> sp.parse <- sp.parse + d) (fun () -> Rpc.parse_request line) with
    | Error (id, code, msg) -> render (fun () -> Rpc.render_error ~id code msg)
    | Ok (id, req) ->
      let result =
        match req with
        | Rpc.Ping -> render (fun () -> Jsonx.to_string Rpc.ping_result)
        | Rpc.Check { game; g6; graph } -> check game g6 graph
        | Rpc.Info { g6; graph } -> info g6 graph
        | Rpc.Stats | Rpc.Census_shard _ -> failwith "replay: method not in any stream"
      in
      render (fun () -> Rpc.render_ok ~id ~result)
  in
  (replay, sp)

(* --- workloads --------------------------------------------------------- *)

type kind = Hot | Cold | Warm

let kind_of = function
  | "serve-hot" -> Hot
  | "serve-cold" -> Cold
  | _ -> Warm

let hot_warmup (cfg : Workload.cfg) = if cfg.toy then 50 else 1_000

(* requests primed into the atlas for serve-warm: well past the LRU's
   4096 entries, so a cycle over them misses the LRU *)
let primed (cfg : Workload.cfg) = if cfg.toy then 512 else 16_384

(* Count kept replies that differ from [expect]; report the first. *)
let mismatches name (p : pass) expect =
  let bad = ref 0 in
  Array.iteri
    (fun j reply ->
      let want = expect p.idx.(j) in
      if not (String.equal want reply) then begin
        if !bad = 0 then
          Printf.eprintf "%s: reply %d differs:\n  got:  %s\n  want: %s\n%!" name p.idx.(j)
            reply want;
        incr bad
      end)
    p.replies;
  !bad

let run name (cfg : Workload.cfg) =
  let kind = kind_of name in
  let w = name in
  let hot = hot_stream cfg.seed in
  let req i = match kind with Hot -> hot i | Cold | Warm -> cold_stream cfg.seed i in
  let line i = line_of ~id:i (req i) in
  (* the hot stream repeats with period [hot_period]: compute each
     distinct result once *)
  let memo = Array.make hot_period None in
  let oracle i =
    let result =
      match kind with
      | Hot -> (
        match memo.(i mod hot_period) with
        | Some r -> r
        | None ->
          let r = expected_result (req i) in
          memo.(i mod hot_period) <- Some r;
          r)
      | Cold | Warm -> expected_result (req i)
    in
    Rpc.render_ok ~id:(Jsonx.Int i) ~result
  in
  (* serve-warm: a cold pass writes the atlas; its replies, checked
     against the oracle, are what every warm reply must equal *)
  let atlas, cold_replies =
    match kind with
    | Hot -> ((fun () -> None), [||])
    | Cold -> ((fun () -> Some (fresh cfg "atlas")), [||])
    | Warm ->
      let dir = fresh cfg "atlas" in
      let k = primed cfg in
      let p =
        pass cfg ~atlas:(fun () -> Some dir) ~telemetry:false ~keep_atlas:true ~seconds:infinity
          ~index:(fun i -> if i < k then Some i else None)
          ~line ()
      in
      let bad = p.bad + p.lost + mismatches (w ^ " priming") p oracle in
      if Array.length p.idx <> k || bad > 0 then
        failwith (Printf.sprintf "%s: priming pass failed (%d bad)" w bad);
      ((fun () -> Some dir), p.replies)
  in
  let index i =
    match kind with
    | Hot -> Some (hot_warmup cfg + i)
    | Cold -> Some i
    | Warm -> Some (i mod Array.length cold_replies)
  in
  let warmup addr =
    if kind = Hot then
      Serve.with_client addr (fun c ->
          for i = 0 to hot_warmup cfg - 1 do
            ignore (Serve.call c (line i))
          done)
  in
  let expect i = match kind with Warm -> cold_replies.(i) | Hot | Cold -> oracle i in
  (* cheap oracles run inline; the cold oracle reruns the kernel, so cold
     replies are kept and checked after the window *)
  let check = match kind with Hot | Warm -> Some (fun i r -> String.equal (expect i) r) | Cold -> None in
  let failed = ref 0 and attempted = ref 0 in
  let measured ~telemetry =
    let p = pass cfg ~atlas ~telemetry ~warmup ?check ~seconds:(Workload.window cfg) ~index ~line () in
    attempted := !attempted + Array.length p.idx + p.lost;
    failed := !failed + p.bad + p.lost + mismatches w p expect;
    p
  in
  let e = measured ~telemetry:false in
  let rows = Workload.e2e_rows w ~setup:e.setup ~op_s:e.lat_s ~wall:e.wall ~rss_mb:e.rss_mb in
  let layer_rows =
    if not cfg.trace then []
    else begin
      let tr = measured ~telemetry:true in
      (* the replay's atlas starts as the traced server's did: empty for
         cold, the primed directory for warm *)
      let opens, handle =
        match atlas () with
        | None -> ([||], None)
        | Some dir ->
          let open_once () =
            match Atlas.open_ dir with Ok a -> a | Error m -> failwith ("atlas: " ^ m)
          in
          let opens =
            Measure.setup_times (fun () ->
                let t, a = Measure.timed open_once in
                Atlas.close a;
                t)
          in
          (opens, Some (open_once ()))
      in
      let replay, sp = replayer ~atlas:handle in
      for i = 0 to (if kind = Hot then hot_warmup cfg else 0) - 1 do
        ignore (replay (line i))
      done;
      zero sp;
      let server_reply j = if tr.replies = [||] then expect tr.idx.(j) else tr.replies.(j) in
      let bad = ref 0 in
      Array.iteri
        (fun j i -> if not (String.equal (replay (line i)) (server_reply j)) then incr bad)
        tr.idx;
      Option.iter Atlas.close handle;
      if !bad > 0 then Printf.eprintf "%s: %d replayed replies differ from the server's\n%!" w !bad;
      failed := !failed + !bad;
      let k = Array.length tr.idx in
      let layer n ns = Rows.v ~samples:k w n (float_of_int ns /. float_of_int k /. 1e3) in
      let layers =
        [
          layer "rpc.parse_us" sp.parse;
          layer "lru.find_us" sp.lru;
          layer "canon.form_us" sp.canon;
          layer "equilibrium.check_us" sp.check;
          layer "rpc.render_us" sp.render;
          layer "atlas.find_us" sp.atlas_find;
          layer "atlas.add_us" sp.atlas_add;
        ]
      in
      let covered = List.fold_left (fun a r -> a +. r.Rows.value) 0.0 layers in
      let mean_us = Stats.mean tr.lat_s *. 1e6 in
      let hits = tr.stat [ "cache"; "hits" ] and misses = tr.stat [ "cache"; "misses" ] in
      let a_hits = tr.stat [ "atlas"; "hits" ] and a_misses = tr.stat [ "atlas"; "misses" ] in
      layers
      @ [
          Rows.v ~kind:Rows.Residual ~samples:k w "serve.transport_us" (mean_us -. covered);
          Rows.ratio w "lru.hit_ratio" ~num:(hits - a_hits) ~den:(hits + misses);
          Rows.ratio w "atlas.hit_ratio" ~num:a_hits ~den:(a_hits + a_misses);
        ]
      @ (if opens = [||] then []
         else [ Rows.v ~samples:(Array.length opens) w "atlas.open_s" (Stats.median opens) ])
      @ Workload.trace_rows w ~samples:k ~covered ~traced:mean_us
          ~untraced_p50:(Stats.median e.lat_s) ~traced_p50:(Stats.median tr.lat_s)
    end
  in
  { Workload.attempted = !attempted; failed = !failed; rows = rows @ layer_rows }

let workload name =
  {
    Workload.name;
    size =
      (fun cfg ->
        match kind_of name with
        | Hot ->
          Printf.sprintf "loadgen 6-class mix after %d warm-up requests" (hot_warmup cfg)
        | Cold ->
          "Hunt.run start graphs n=10..16, 1 in 8 a relabeled catalogued equilibrium"
        | Warm ->
          Printf.sprintf "first %d requests of the cold stream in a cycle, primed atlas"
            (primed cfg));
    ready = (fun _ -> ());
    run = run name;
  }
