(* Event-driven serving core: per-core worker domains, each running a
   level-triggered Poller (epoll on Linux, poll elsewhere) over
   non-blocking sockets. Accept threads hand fresh connections to
   workers round-robin through a pipe-woken inbox; each connection
   carries a reusable read frame and write buffer, so a pipelined
   client's N requests cost one read wakeup, N dispatches and one
   (batched) write — no per-request thread, no per-request buffer.

   Responses go back in request order per connection because each
   worker processes its connections' lines synchronously, in arrival
   order. Heavy kernels still enter the shared domain pool one region
   at a time ([pool_lock]); cache lookups go to per-shard locks
   ([Lru_sharded]), so workers contend only when keys collide. *)

type address = Unix_sock of string | Tcp of string * int

let pp_address ppf = function
  | Unix_sock path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

type config = {
  addresses : address list;
  jobs : int;
  workers : int;
  cache_capacity : int;
  cache_shards : int;
  max_request_bytes : int;
  max_graph_vertices : int;
  census_slice : int;
  request_timeout : float;
  write_high_water : int;
  atlas_dir : string option;
      (* warm-start tier under the LRU: persistent content-addressed
         store consulted on cache misses and populated on computes *)
}

let default_config =
  {
    addresses = [];
    jobs = 0;
    workers = 0;
    cache_capacity = 4096;
    cache_shards = 0;
    max_request_bytes = 1 lsl 20;
    max_graph_vertices = 512;
    census_slice = 4096;
    request_timeout = 30.0;
    write_high_water = 1 lsl 20;
    atlas_dir = None;
  }

external fd_int : Unix.file_descr -> int = "%identity"

(* --- telemetry (all no-ops while --stats is off) ------------------------- *)

let m_requests = Telemetry.counter "serve.requests"

let m_ok = Telemetry.counter "serve.ok"

let m_errors = Telemetry.counter "serve.errors"

let m_conns = Telemetry.counter "serve.connections"

let m_cache_hits = Telemetry.counter "serve.cache_hits"

let m_cache_misses = Telemetry.counter "serve.cache_misses"

let m_bytes_in = Telemetry.counter "serve.bytes_in"

let m_bytes_out = Telemetry.counter "serve.bytes_out"

let m_latency = Telemetry.histogram "serve.latency_us"

let m_inflight = Telemetry.gauge "serve.in_flight"

let m_wakeups = Telemetry.counter "serve.evloop.wakeups"

let m_ready_batch = Telemetry.histogram "serve.evloop.ready_batch"

let m_depth = Telemetry.histogram "serve.pipeline_depth"

(* --- in-band histograms --------------------------------------------------

   The stats method reports live values whether or not telemetry is on,
   so the event loop keeps its own tiny log2 histograms: plain int
   arrays, one writer (the owning worker domain), read racily by stats
   snapshots — monitoring-grade, like every other live counter here. *)

let hist_buckets = 16

let hist_observe h v =
  let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1) in
  let b = if v <= 1 then 0 else min (hist_buckets - 1) (log2 v 0) in
  h.(b) <- h.(b) + 1

let hist_sum into from =
  Array.iteri (fun i v -> into.(i) <- into.(i) + v) from;
  into

(* --- server state -------------------------------------------------------- *)

type worker = {
  w_index : int;
  w_wake_r : Unix.file_descr;
  w_wake_w : Unix.file_descr;
  w_inbox : Unix.file_descr Queue.t;
  w_inbox_lock : Mutex.t;
  (* live event-loop stats; single-writer (the worker domain) *)
  mutable w_wakeups : int;
  w_batch_hist : int array;
  w_depth_hist : int array;
  mutable w_conns : int;
  mutable w_domain : unit Domain.t option;
}

type t = {
  cfg : config;
  pool : Pool.t;
  pool_lock : Mutex.t;
  cache : string Lru_sharded.t;
  (* memo of graph6 text -> canonical form: canonicalization is the
     expensive part of a canonical-cache probe (highly symmetric graphs
     backtrack over large automorphism groups), so repeated texts must
     not pay it twice *)
  canon : string Lru_sharded.t;
  (* disk-backed warm-start tier (shared with census runs via the CLI);
     None unless [atlas_dir] is configured *)
  atlas : Atlas.t option;
  stopping : bool Atomic.t;
  listeners : (address * Unix.file_descr) list;
  mutable accept_threads : Thread.t list;
  workers : worker array;
  rr : int Atomic.t;  (* round-robin connection handoff cursor *)
  backend : string;
  (* live counters for the in-band stats method, independent of the
     telemetry switch *)
  requests : int Atomic.t;
  ok_count : int Atomic.t;
  err_count : int Atomic.t;
  in_flight : int Atomic.t;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  started_at : float;
  mutable stopped : bool;
  stop_lock : Mutex.t;
}

(* --- cache --------------------------------------------------------------- *)

let count_hit srv =
  Atomic.incr srv.hit_count;
  Telemetry.incr m_cache_hits

let count_miss srv =
  Atomic.incr srv.miss_count;
  Telemetry.incr m_cache_misses

(* --- dispatch ------------------------------------------------------------ *)

let stats_result srv =
  let shards = Lru_sharded.shard_stats srv.cache in
  let batch = Array.make hist_buckets 0 in
  let depth = Array.make hist_buckets 0 in
  let wakeups = ref 0 in
  let open_conns = ref 0 in
  Array.iter
    (fun w ->
      wakeups := !wakeups + w.w_wakeups;
      open_conns := !open_conns + w.w_conns;
      ignore (hist_sum batch w.w_batch_hist);
      ignore (hist_sum depth w.w_depth_hist))
    srv.workers;
  let hist_json h =
    Jsonx.List (Array.to_list (Array.map (fun v -> Jsonx.Int v) h))
  in
  Jsonx.Obj
    ([
      ("protocol_version", Jsonx.Int Rpc.protocol_version);
      ("requests", Jsonx.Int (Atomic.get srv.requests));
      ("ok", Jsonx.Int (Atomic.get srv.ok_count));
      ("errors", Jsonx.Int (Atomic.get srv.err_count));
      ("in_flight", Jsonx.Int (Atomic.get srv.in_flight));
      ("jobs", Jsonx.Int (Pool.jobs srv.pool));
      ( "uptime_ms",
        Jsonx.Int (int_of_float ((Unix.gettimeofday () -. srv.started_at) *. 1e3))
      );
      ( "cache",
        Jsonx.Obj
          [
            ("size", Jsonx.Int (Lru_sharded.length srv.cache));
            ("capacity", Jsonx.Int (Lru_sharded.capacity srv.cache));
            ("hits", Jsonx.Int (Atomic.get srv.hit_count));
            ("misses", Jsonx.Int (Atomic.get srv.miss_count));
            ( "shards",
              Jsonx.List
                (Array.to_list
                   (Array.map
                      (fun (s : Lru_sharded.shard_stats) ->
                        Jsonx.Obj
                          [
                            ("size", Jsonx.Int s.Lru_sharded.size);
                            ("hits", Jsonx.Int s.Lru_sharded.hits);
                            ("misses", Jsonx.Int s.Lru_sharded.misses);
                          ])
                      shards)) );
          ] );
      ( "evloop",
        Jsonx.Obj
          [
            ("backend", Jsonx.Str srv.backend);
            ("workers", Jsonx.Int (Array.length srv.workers));
            ("wakeups", Jsonx.Int !wakeups);
            ("connections", Jsonx.Int !open_conns);
            ("ready_batch_log2", hist_json batch);
            ("pipeline_depth_log2", hist_json depth);
          ] );
    ]
    @
    match srv.atlas with
    | None -> []
    | Some a ->
      let s = Atlas.stats a in
      [
        ( "atlas",
          Jsonx.Obj
            [
              ("segments", Jsonx.Int s.Atlas.segments);
              ("records", Jsonx.Int s.Atlas.records);
              ("bytes", Jsonx.Int s.Atlas.bytes);
              ("appended", Jsonx.Int s.Atlas.appended);
              ("duplicates", Jsonx.Int s.Atlas.duplicates);
              ("hits", Jsonx.Int s.Atlas.hits);
              ("misses", Jsonx.Int s.Atlas.misses);
              ("torn_records", Jsonx.Int s.Atlas.torn_records);
              ("corrupt_records", Jsonx.Int s.Atlas.corrupt_records);
            ] );
      ])

let graph_too_large srv g =
  if Graph.n g > srv.cfg.max_graph_vertices then
    Some
      ( Rpc.Too_large,
        Printf.sprintf "graph has %d vertices; this server accepts at most %d"
          (Graph.n g) srv.cfg.max_graph_vertices )
  else None

let past deadline = Unix.gettimeofday () > deadline

(* Warm-start tier: on an LRU miss, probe the atlas before computing;
   on a compute, append the rendered fragment so every future process
   starts warm. Fragments are stored verbatim, so hits are
   byte-identical to misses. *)
let atlas_find srv key =
  match srv.atlas with
  | None -> None
  | Some a ->
    let r = Atlas.find a key in
    (* warm the LRU so the next probe is a memory hit *)
    Option.iter (fun r -> Lru_sharded.add srv.cache key r) r;
    r

let atlas_add srv key r =
  match srv.atlas with
  | None -> ()
  | Some a -> Atlas.add a ~key ~value:r

let do_info srv (g6 : string) g =
  match graph_too_large srv g with
  | Some err -> Error err
  | None -> (
    let key = "info:" ^ g6 in
    match Lru_sharded.find srv.cache key with
    | Some r ->
      count_hit srv;
      Ok r
    | None -> (
      match atlas_find srv key with
      | Some r ->
        count_hit srv;
        Ok r
      | None ->
        count_miss srv;
        let r = Jsonx.to_string (Rpc.info_result g) in
        Lru_sharded.add srv.cache key r;
        atlas_add srv key r;
        Ok r))

let do_check srv ~deadline game (g6 : string) g =
  match graph_too_large srv g with
  | Some err -> Error err
  | None -> (
    let game_name = Game.to_string game in
    let exact_key = Printf.sprintf "check:%s:%s" game_name g6 in
    (* canonical key: relabelings of an already-checked graph are hits.
       Guarded by the Canon search cap and restricted to the basic games
       — an alpha verdict depends on the labeling through edge ownership,
       so even "equilibrium" must not be served to a relabeling. Larger
       graphs only dedupe on the exact bytes. *)
    let canon_key =
      if Game.is_basic game && Graph.n g <= Canon.max_search_vertices then begin
        let cf =
          match Lru_sharded.find srv.canon g6 with
          | Some cf -> cf
          | None ->
            let cf = Canon.canonical_form g in
            Lru_sharded.add srv.canon g6 cf;
            cf
        in
        Some (Printf.sprintf "check:%s:canon:%s" game_name cf)
      end
      else None
    in
    let cached =
      match Lru_sharded.find srv.cache exact_key with
      | Some r -> Some r
      | None -> Option.bind canon_key (Lru_sharded.find srv.cache)
    in
    (* LRU miss: probe the warm-start tier under the same two keys. The
       canon entry only ever holds isomorphism-invariant fragments, so
       serving it for a relabeling is byte-safe. *)
    let cached =
      match cached with
      | Some _ -> cached
      | None -> (
        match atlas_find srv exact_key with
        | Some _ as r -> r
        | None -> Option.bind canon_key (atlas_find srv))
    in
    match cached with
    | Some r ->
      count_hit srv;
      Ok r
    | None ->
      count_miss srv;
      if past deadline then
        Error (Rpc.Timeout, "deadline expired before dispatch")
      else begin
        Mutex.lock srv.pool_lock;
        (* the wait queued on [pool_lock] (behind a heavy check) counts
           against the deadline too: do not burn pool time on a reply
           the client has already given up on *)
        let verdict =
          Fun.protect
            ~finally:(fun () -> Mutex.unlock srv.pool_lock)
            (fun () ->
              if past deadline then None
              else Some (Equilibrium.check ~pool:srv.pool game g))
        in
        match verdict with
        | None ->
          Error (Rpc.Timeout, "deadline expired while queued for the pool")
        | Some verdict ->
          let r = Jsonx.to_string (Rpc.check_result game verdict g) in
          Lru_sharded.add srv.cache exact_key r;
          atlas_add srv exact_key r;
          (* a violation witness names concrete vertices, so it is only
             valid for this labeling — never serve it to an isomorphic
             relabeling *)
          if Rpc.verdict_is_invariant verdict then begin
            Option.iter (fun k -> Lru_sharded.add srv.cache k r) canon_key;
            Option.iter (fun k -> atlas_add srv k r) canon_key
          end;
          Ok r
      end)

let do_census srv ~deadline (shard : Census.shard) =
  match Census.validate_shard shard with
  | Error msg -> Error (Rpc.Invalid_params, msg)
  | Ok () ->
    (* deadline-checked slices: a shard is the client-facing unit of
       parallelism (fan disjoint shards across requests), a slice is
       the server-side unit of interruption *)
    let slice = max 1 srv.cfg.census_slice in
    let timeout_err =
      ( Rpc.Timeout,
        Printf.sprintf "deadline expired inside census shard [%d, %d)"
          shard.Census.lo shard.Census.hi )
    in
    let rec go acc cursor =
      if cursor >= shard.Census.hi then
        Ok (Jsonx.to_string (Rpc.census_result acc))
      else if past deadline then Error timeout_err
      else begin
        let stop = min shard.Census.hi (cursor + slice) in
        let part =
          Census.run_shard ?atlas:srv.atlas
            { shard with Census.lo = cursor; hi = stop }
        in
        go (Census.merge_result acc part) stop
      end
    in
    go
      (Census.run_shard { shard with Census.hi = shard.Census.lo })
      shard.Census.lo

let dispatch srv ~deadline = function
  | Rpc.Ping -> Ok (Jsonx.to_string Rpc.ping_result)
  | Rpc.Stats -> Ok (Jsonx.to_string (stats_result srv))
  | Rpc.Info { g6; graph } -> do_info srv g6 graph
  | Rpc.Check { game; g6; graph } -> do_check srv ~deadline game g6 graph
  | Rpc.Census_shard shard -> do_census srv ~deadline shard

(* Everything below the envelope goes through here: every line gets a
   reply, every exception becomes an [internal] error, the server never
   dies on a request. *)
let process_request srv line =
  Atomic.incr srv.requests;
  Telemetry.incr m_requests;
  Atomic.incr srv.in_flight;
  Telemetry.set_gauge m_inflight (Atomic.get srv.in_flight);
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. srv.cfg.request_timeout in
  let response =
    if String.length line > srv.cfg.max_request_bytes then begin
      Atomic.incr srv.err_count;
      Telemetry.incr m_errors;
      Rpc.render_error ~id:Jsonx.Null Rpc.Too_large
        (Printf.sprintf "request exceeds %d bytes" srv.cfg.max_request_bytes)
    end
    else begin
      let id, outcome =
        match Rpc.parse_request line with
        | Error (id, code, msg) -> (id, Error (code, msg))
        | Ok (id, req) -> (
          ( id,
            try dispatch srv ~deadline req with
            | Invalid_argument msg -> Error (Rpc.Invalid_params, msg)
            | e -> Error (Rpc.Internal, Printexc.to_string e) ))
      in
      match outcome with
      | Ok result ->
        Atomic.incr srv.ok_count;
        Telemetry.incr m_ok;
        Rpc.render_ok ~id ~result
      | Error (code, msg) ->
        Atomic.incr srv.err_count;
        Telemetry.incr m_errors;
        Rpc.render_error ~id code msg
    end
  in
  Atomic.decr srv.in_flight;
  Telemetry.set_gauge m_inflight (Atomic.get srv.in_flight);
  Telemetry.observe m_latency (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  response

(* --- connections ---------------------------------------------------------- *)

type conn = {
  c_fd : Unix.file_descr;
  c_frame : Lineframe.t;
  mutable c_out : Bytes.t;  (* pending output: c_out[c_opos, c_olen) *)
  mutable c_opos : int;
  mutable c_olen : int;
  mutable c_want_read : bool;  (* interest currently registered *)
  mutable c_want_write : bool;
  mutable c_eof : bool;  (* peer closed its write side *)
  mutable c_overflow : bool;  (* framing lost; close once flushed *)
  mutable c_closed : bool;
}

let out_pending c = c.c_olen - c.c_opos

let append_out c (s : string) =
  let k = String.length s in
  let cap = Bytes.length c.c_out in
  if c.c_olen + k + 1 > cap then begin
    (* compact: flushed bytes at the front are free space *)
    let live = out_pending c in
    if c.c_opos > 0 then begin
      Bytes.blit c.c_out c.c_opos c.c_out 0 live;
      c.c_opos <- 0;
      c.c_olen <- live
    end;
    if c.c_olen + k + 1 > cap then begin
      let want = ref (max cap 4096) in
      while c.c_olen + k + 1 > !want do
        want := !want * 2
      done;
      let bigger = Bytes.create !want in
      Bytes.blit c.c_out 0 bigger 0 c.c_olen;
      c.c_out <- bigger
    end
  end;
  Bytes.blit_string s 0 c.c_out c.c_olen k;
  Bytes.set c.c_out (c.c_olen + k) '\n';
  c.c_olen <- c.c_olen + k + 1

(* --- event-loop workers --------------------------------------------------- *)

let make_worker i =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    w_index = i;
    w_wake_r = wake_r;
    w_wake_w = wake_w;
    w_inbox = Queue.create ();
    w_inbox_lock = Mutex.create ();
    w_wakeups = 0;
    w_batch_hist = Array.make hist_buckets 0;
    w_depth_hist = Array.make hist_buckets 0;
    w_conns = 0;
    w_domain = None;
  }

let wake worker =
  match Unix.write_substring worker.w_wake_w "w" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    () (* pipe full: a wakeup is already pending *)
  | exception Unix.Unix_error _ -> ()

let worker_loop srv w =
  let cfg = srv.cfg in
  let poller = Poller.create () in
  Poller.add poller w.w_wake_r ~read:true ~write:false;
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 64 in
  let chunk = Bytes.create 65536 in
  let close_conn c =
    if not c.c_closed then begin
      c.c_closed <- true;
      Hashtbl.remove conns (fd_int c.c_fd);
      w.w_conns <- w.w_conns - 1;
      Poller.remove poller c.c_fd;
      try Unix.close c.c_fd with Unix.Unix_error _ -> ()
    end
  in
  let update_interest c =
    if not c.c_closed then begin
      let read =
        (not c.c_eof) && (not c.c_overflow) && out_pending c < cfg.write_high_water
      in
      let write = out_pending c > 0 in
      if read <> c.c_want_read || write <> c.c_want_write then begin
        c.c_want_read <- read;
        c.c_want_write <- write;
        Poller.modify poller c.c_fd ~read ~write
      end
    end
  in
  let try_flush c =
    let live = ref true in
    while !live && out_pending c > 0 do
      match Unix.write c.c_fd c.c_out c.c_opos (out_pending c) with
      | n ->
        c.c_opos <- c.c_opos + n;
        Telemetry.add m_bytes_out n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        live := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN | Unix.EBADF), _, _)
        ->
        close_conn c;
        live := false
    done;
    if (not c.c_closed) && out_pending c = 0 then begin
      c.c_opos <- 0;
      c.c_olen <- 0
    end
  in
  (* process buffered complete lines while backpressure allows, flush,
     and recompute interest — the one driver for readable, writable and
     drain-phase progress alike.

     Process and flush alternate until neither makes progress: when line
     processing pauses at the high-water mark and the flush then drains
     the output (fast reader, roomy sndbuf), processing must resume —
     stopping there would strand complete lines already sitting in
     [c_frame], and with the rcvbuf empty no event would ever re-drive
     this connection. *)
  let pump ?(ignore_high_water = false) c =
    let depth = ref 0 in
    let frame_exhausted = ref false in (* `More / `Overflow seen *)
    let again = ref true in
    while !again && not c.c_closed do
      let continue = ref true in
      while !continue && not c.c_closed do
        if (not ignore_high_water) && out_pending c >= cfg.write_high_water then
          continue := false
        else
          match Lineframe.next c.c_frame with
          | `Line "" -> () (* blank keep-alive line *)
          | `Line line ->
            incr depth;
            append_out c (process_request srv line)
          | `More ->
            frame_exhausted := true;
            continue := false
          | `Overflow ->
            if not c.c_overflow then begin
              (* the line overran the limit before its newline arrived:
                 framing is lost, so reply once and hang up *)
              c.c_overflow <- true;
              Atomic.incr srv.requests;
              Telemetry.incr m_requests;
              Atomic.incr srv.err_count;
              Telemetry.incr m_errors;
              append_out c
                (Rpc.render_error ~id:Jsonx.Null Rpc.Too_large
                   (Printf.sprintf "request exceeds %d bytes" cfg.max_request_bytes))
            end;
            frame_exhausted := true;
            continue := false
      done;
      if c.c_closed then again := false
      else begin
        try_flush c;
        again :=
          (not c.c_closed)
          && (not !frame_exhausted)
          && (ignore_high_water || out_pending c < cfg.write_high_water)
      end
    done;
    if !depth > 0 then begin
      hist_observe w.w_depth_hist !depth;
      Telemetry.observe m_depth !depth
    end;
    if not c.c_closed then
      if out_pending c = 0 && (c.c_overflow || c.c_eof) then close_conn c
      else update_interest c
  in
  let handle_readable c =
    match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      (* EOF: serve what is buffered, then close once flushed *)
      c.c_eof <- true;
      pump c
    | k ->
      Telemetry.add m_bytes_in k;
      Lineframe.feed c.c_frame chunk 0 k;
      pump c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
      ->
      close_conn c
  in
  let adopt fd =
    Telemetry.incr m_conns;
    let c =
      {
        c_fd = fd;
        c_frame = Lineframe.create ~max_line:cfg.max_request_bytes ();
        c_out = Bytes.create 4096;
        c_opos = 0;
        c_olen = 0;
        c_want_read = true;
        c_want_write = false;
        c_eof = false;
        c_overflow = false;
        c_closed = false;
      }
    in
    Hashtbl.replace conns (fd_int fd) c;
    w.w_conns <- w.w_conns + 1;
    Poller.add poller fd ~read:true ~write:false;
    (* bytes may already be waiting (level-triggering would also catch
       this on the next wait; serving it now saves a wakeup) *)
    handle_readable c
  in
  let drain_inbox () =
    let rec drain_pipe () =
      match Unix.read w.w_wake_r chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | _ -> drain_pipe ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
    in
    drain_pipe ();
    let adopted = ref [] in
    Mutex.lock w.w_inbox_lock;
    Queue.iter (fun fd -> adopted := fd :: !adopted) w.w_inbox;
    Queue.clear w.w_inbox;
    Mutex.unlock w.w_inbox_lock;
    List.iter adopt (List.rev !adopted)
  in
  let wake_fd = fd_int w.w_wake_r in
  while not (Atomic.get srv.stopping) do
    let n = Poller.wait poller ~timeout_ms:250 in
    w.w_wakeups <- w.w_wakeups + 1;
    Telemetry.incr m_wakeups;
    if n > 0 then begin
      hist_observe w.w_batch_hist n;
      Telemetry.observe m_ready_batch n
    end;
    for i = 0 to n - 1 do
      let fd = Poller.ready_fd poller i in
      if fd_int fd = wake_fd then drain_inbox ()
      else
        match Hashtbl.find_opt conns (fd_int fd) with
        | None -> () (* closed earlier in this same batch *)
        | Some c ->
          if Poller.ready_error poller i then close_conn c
          else begin
            if Poller.ready_write poller i then pump c;
            if (not c.c_closed) && Poller.ready_read poller i then handle_readable c
          end
    done
  done;
  (* drain phase: answer every complete line already received (partial
     lines are dropped — same contract as the thread-per-connection
     server), flush with a bounded deadline, close everything *)
  drain_inbox ();
  let deadline = Unix.gettimeofday () +. 5.0 in
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  List.iter
    (fun c ->
      if not c.c_closed then begin
        pump ~ignore_high_water:true c;
        while
          (not c.c_closed)
          && out_pending c > 0
          && Unix.gettimeofday () < deadline
          && Poller.wait_writable c.c_fd 0.2
        do
          try_flush c
        done;
        close_conn c
      end)
    remaining;
  Mutex.lock w.w_inbox_lock;
  Queue.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) w.w_inbox;
  Queue.clear w.w_inbox;
  Mutex.unlock w.w_inbox_lock;
  Poller.close poller;
  try Unix.close w.w_wake_r with Unix.Unix_error _ -> ()

(* --- sockets ------------------------------------------------------------- *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) ->
      invalid_arg (Printf.sprintf "Serve: cannot resolve host %S" host))

let bind_one addr =
  match addr with
  | Unix_sock path ->
    (match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path (* stale socket *)
    | _ -> invalid_arg (Printf.sprintf "Serve: %s exists and is not a socket" path)
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    (Unix_sock path, fd)
  | Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
    Unix.listen fd 128;
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (Tcp (host, bound_port), fd)

let accept_loop srv fd =
  Unix.set_nonblock fd;
  let nworkers = Array.length srv.workers in
  let rec loop () =
    if not (Atomic.get srv.stopping) then
      if Poller.wait_readable fd 0.2 then begin
        match Unix.accept ~cloexec:true fd with
        | conn_fd, _ ->
          if Atomic.get srv.stopping then
            (* raced with shutdown: the workers may already have drained
               their inboxes for the last time, so serve nothing — hang
               up promptly instead of parking the client forever *)
            (try Unix.close conn_fd with Unix.Unix_error _ -> ())
          else begin
            Unix.set_nonblock conn_fd;
            (* latency over batching on TCP: responses are already written
               in as few syscalls as the pipeline allows *)
            (try Unix.setsockopt conn_fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> () (* unix-domain sockets *));
            let w =
              srv.workers.(Atomic.fetch_and_add srv.rr 1 mod nworkers)
            in
            Mutex.lock w.w_inbox_lock;
            Queue.push conn_fd w.w_inbox;
            Mutex.unlock w.w_inbox_lock;
            wake w
          end;
          loop ()
        | exception
            Unix.Unix_error
              ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                | Unix.ECONNABORTED ),
                _,
                _ ) ->
          loop ()
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          (* fd exhaustion is transient — connections close and free
             slots; back off briefly rather than killing the acceptor *)
          (try Unix.sleepf 0.05
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
      end
      else loop ()
  in
  (try loop ()
   with e ->
     Printf.eprintf "serve: accept loop died: %s\n%!" (Printexc.to_string e));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- lifecycle ----------------------------------------------------------- *)

let start cfg =
  if cfg.addresses = [] then invalid_arg "Serve.start: no addresses";
  if cfg.jobs < 0 then invalid_arg "Serve.start: jobs < 0";
  if cfg.workers < 0 then invalid_arg "Serve.start: workers < 0";
  if cfg.cache_capacity < 1 then invalid_arg "Serve.start: cache_capacity < 1";
  if cfg.cache_shards < 0 then invalid_arg "Serve.start: cache_shards < 0";
  if cfg.max_request_bytes < 64 then
    invalid_arg "Serve.start: max_request_bytes < 64";
  if cfg.max_graph_vertices < 1 then
    invalid_arg "Serve.start: max_graph_vertices < 1";
  if cfg.request_timeout <= 0.0 then
    invalid_arg "Serve.start: request_timeout <= 0";
  if cfg.write_high_water < 64 then
    invalid_arg "Serve.start: write_high_water < 64";
  (* a vanished client must close one connection, not kill the server *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let jobs = if cfg.jobs = 0 then Pool.available_jobs () else cfg.jobs in
  let nworkers = if cfg.workers = 0 then Pool.available_jobs () else cfg.workers in
  let shards = if cfg.cache_shards = 0 then 8 else cfg.cache_shards in
  (* open the atlas before binding any socket: a locked or damaged
     directory must fail the whole start, not a half-bound server *)
  let atlas =
    match cfg.atlas_dir with
    | None -> None
    | Some dir -> (
      match Atlas.open_ dir with
      | Ok a -> Some a
      | Error m -> invalid_arg ("Serve.start: atlas: " ^ m))
  in
  let listeners =
    try List.map bind_one cfg.addresses
    with e ->
      Option.iter Atlas.close atlas;
      raise e
  in
  let srv =
    {
      cfg;
      pool = Pool.create ~jobs ();
      pool_lock = Mutex.create ();
      cache = Lru_sharded.create ~shards ~capacity:cfg.cache_capacity ();
      canon = Lru_sharded.create ~shards ~capacity:cfg.cache_capacity ();
      atlas;
      stopping = Atomic.make false;
      listeners;
      accept_threads = [];
      workers = Array.init nworkers make_worker;
      rr = Atomic.make 0;
      backend = Poller.available_backend ();
      requests = Atomic.make 0;
      ok_count = Atomic.make 0;
      err_count = Atomic.make 0;
      in_flight = Atomic.make 0;
      hit_count = Atomic.make 0;
      miss_count = Atomic.make 0;
      started_at = Unix.gettimeofday ();
      stopped = false;
      stop_lock = Mutex.create ();
    }
  in
  Array.iter
    (fun w ->
      w.w_domain <-
        Some
          (Domain.spawn (fun () ->
               try worker_loop srv w
               with e ->
                 Printf.eprintf "serve: worker %d died: %s\n%!" w.w_index
                   (Printexc.to_string e))))
    srv.workers;
  srv.accept_threads <-
    List.map (fun (_, fd) -> Thread.create (accept_loop srv) fd) listeners;
  srv

let bound_addresses srv = List.map fst srv.listeners

let backend_name srv = srv.backend

let worker_count srv = Array.length srv.workers

let stop srv =
  Mutex.lock srv.stop_lock;
  let already = srv.stopped in
  srv.stopped <- true;
  Mutex.unlock srv.stop_lock;
  if not already then begin
    Atomic.set srv.stopping true;
    (* accept threads first: after they join, no new connection can be
       pushed into a worker inbox *)
    List.iter Thread.join srv.accept_threads;
    Array.iter wake srv.workers;
    Array.iter
      (fun w ->
        Option.iter Domain.join w.w_domain;
        w.w_domain <- None;
        (* a worker can observe [stopping] on its own poll timeout and
           run its final inbox drain before the accept threads exit; a
           connection accepted in that window lands in an inbox nobody
           reads again — close it here, after both sides have joined *)
        Mutex.lock w.w_inbox_lock;
        Queue.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          w.w_inbox;
        Queue.clear w.w_inbox;
        Mutex.unlock w.w_inbox_lock;
        try Unix.close w.w_wake_w with Unix.Unix_error _ -> ())
      srv.workers;
    Pool.shutdown srv.pool;
    (* after the pool: no in-flight request can append anymore *)
    Option.iter Atlas.close srv.atlas;
    List.iter
      (function
        | Unix_sock path, _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | Tcp _, _ -> ())
      srv.listeners
  end

let run ?(on_ready = fun _ -> ()) cfg =
  let stop_flag = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_flag true) in
  let old_int = Sys.signal Sys.sigint handler in
  let old_term = Sys.signal Sys.sigterm handler in
  let srv = start cfg in
  on_ready srv;
  while not (Atomic.get stop_flag) do
    try Unix.sleepf 0.2
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  stop srv;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term

(* --- client -------------------------------------------------------------- *)

type client = {
  c_cl_fd : Unix.file_descr;
  c_cl_frame : Lineframe.t;
  c_chunk : Bytes.t;
  c_timeout : float;
}

let connect ?(timeout = 30.0) addr =
  let fd =
    match addr with
    | Unix_sock path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (resolve_host host, port));
      fd
  in
  {
    c_cl_fd = fd;
    (* response lines (census tallies) can be far larger than request
       lines; the client frame never overflows in practice *)
    c_cl_frame = Lineframe.create ~max_line:(1 lsl 30) ();
    c_chunk = Bytes.create 65536;
    c_timeout = timeout;
  }

let close_client c = try Unix.close c.c_cl_fd with Unix.Unix_error _ -> ()

let send_line c line =
  let data = line ^ "\n" in
  let len = String.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring c.c_cl_fd data !off (len - !off)
  done

let recv_line c =
  let deadline = Unix.gettimeofday () +. c.c_timeout in
  let rec await () =
    match Lineframe.next c.c_cl_frame with
    | `Line line -> line
    | `Overflow -> failwith "Serve.recv_line: reply exceeds frame limit"
    | `More ->
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then failwith "Serve.call: timed out awaiting reply"
      else begin
        if Poller.wait_readable c.c_cl_fd (Float.min remaining 0.25) then begin
          match Unix.read c.c_cl_fd c.c_chunk 0 (Bytes.length c.c_chunk) with
          | 0 -> failwith "Serve.call: connection closed by server"
          | k -> Lineframe.feed c.c_cl_frame c.c_chunk 0 k
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        end;
        await ()
      end
  in
  await ()

let call c line =
  send_line c line;
  recv_line c

let with_client ?timeout addr f =
  let c = connect ?timeout addr in
  Fun.protect ~finally:(fun () -> close_client c) (fun () -> f c)
