(* Fault-tolerant census orchestration: split one shard descriptor into
   parts, fan the parts across a mixed fleet of workers, merge in rank
   order. One systhread per worker drains a shared retry queue; the
   actual parallelism is one fresh domain per in-flight local shard
   (systhreads interleave on the master lock) plus however many remote
   server processes the fleet names. Failures requeue the shard and
   back off the worker; a worker failing repeatedly in a row is
   blacklisted (its thread exits, its queue share flows to the healthy
   ones). The merged result is byte-identical to the sequential census
   because parts are merged in ascending rank order with
   [Census.merge_result] — the same merge a pooled in-process census
   uses — and graph6 round-trips remote representatives exactly. A
   reply of the wrong kind or [n] is a worker error, never merged. *)

let m_shards = Telemetry.counter "dispatch.shards"

let m_journal_hits = Telemetry.counter "dispatch.journal_hits"

let m_dispatched = Telemetry.counter "dispatch.dispatched"

let m_retried = Telemetry.counter "dispatch.retried"

let m_recovered = Telemetry.counter "dispatch.recovered"

let m_blacklisted = Telemetry.counter "dispatch.blacklisted"

type worker =
  | Local of string
  | Remote of Serve.address
  | Custom of string * (Census.shard -> (Census.result, string) result)

let worker_name = function
  | Local name -> name
  | Remote addr -> Format.asprintf "%a" Serve.pp_address addr
  | Custom (name, _) -> name

type config = {
  workers : worker list;
  parts : int;
  max_attempts : int;
  blacklist_after : int;
  backoff : float;
  timeout : float;
  journal : string option;
  atlas : Atlas.t option;
}

let default_config =
  {
    workers = [];
    parts = 0;
    max_attempts = 3;
    blacklist_after = 3;
    backoff = 0.05;
    timeout = 30.0;
    journal = None;
    atlas = None;
  }

type stats = {
  shards : int;
  journal_hits : int;
  dispatched : int;
  retried : int;
  recovered : int;
  blacklisted : string list;
}

(* --- journal --------------------------------------------------------------

   Line-oriented, append-only: one header line identifying the run
   (kind, game, n, range, parts — everything that determines the shard
   boundaries), then one entry line per completed shard. Entries are
   flushed as they land, so a SIGKILL loses at most the line being
   written; unparseable trailing lines are skipped on resume. A header
   that does not match the requested run byte-for-byte is an error, not
   a silent recompute — mixing journals corrupts censuses. *)

let journal_header (shard : Census.shard) ~parts =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("journal", Jsonx.Str "bncg-census");
         ("v", Jsonx.Int 1);
         ("kind", Jsonx.Str (Census.kind_name shard.Census.kind));
         ("game", Jsonx.Str (Game.to_string shard.Census.game));
         ("n", Jsonx.Int shard.Census.n);
         ("lo", Jsonx.Int shard.Census.lo);
         ("hi", Jsonx.Int shard.Census.hi);
         ("parts", Jsonx.Int parts);
       ])

let journal_entry ~lo ~hi result =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("lo", Jsonx.Int lo);
         ("hi", Jsonx.Int hi);
         ("result", Rpc.census_result result);
       ])

(* A worker reply or journal entry belongs to a shard only when it is a
   census of the same kind on the same vertex count; anything else would
   make the final merge raise. *)
let fits (shard : Census.shard) r =
  let n =
    match r with
    | Census.Tree_result c -> c.Census.n
    | Census.Graph_result c | Census.Orderly_result c -> c.Census.n
  in
  Census.result_kind r = shard.Census.kind && n = shard.Census.n

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* [index_of (lo, hi)] maps an entry back to its shard slot; entries
   from a run with different boundaries simply miss and are ignored
   (the header check makes that impossible in practice, but the loader
   stays total regardless). *)
let load_journal path ~header ~index_of ~shard =
  if not (Sys.file_exists path) then Ok []
  else begin
    match read_lines path with
    | [] -> Ok []
    | found :: entries ->
      if not (String.equal found header) then
        Error
          (Printf.sprintf
             "journal %s was written by a different run\n  expected header: %s\n  found:           %s"
             path header found)
      else begin
        let decode line =
          match Jsonx.parse line with
          | Error _ -> None (* truncated tail from a killed run *)
          | Ok json -> (
            let int k =
              Option.bind (Jsonx.member k json) Jsonx.to_int
            in
            match (int "lo", int "hi", Jsonx.member "result" json) with
            | Some lo, Some hi, Some rj -> (
              match (index_of (lo, hi), Rpc.census_result_of_json rj) with
              | Some i, Ok r when fits shard r -> Some (i, r)
              | _ -> None)
            | _ -> None)
        in
        Ok (List.filter_map decode entries)
      end
  end

(* --- workers --------------------------------------------------------------- *)

let backoff_sleep seconds =
  if seconds > 0.0 then
    try Unix.sleepf seconds with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Per-worker execution. Remote connections are persistent but torn
   down after ANY error: a timed-out call may leave its reply in
   flight, and reusing the stream would hand that stale reply to the
   next request. Local shards run on a freshly spawned domain each —
   a domain cannot be killed, so local work ignores the timeout; the
   remote timeout is what reclaims shards from stragglers. *)
let make_executor cfg = function
  | Local _ ->
    let execute shard =
      (* the atlas handle is domain-safe, so concurrent local shards
         share the dispatcher's handle directly *)
      match
        Domain.join
          (Domain.spawn (fun () -> Census.run_shard ?atlas:cfg.atlas shard))
      with
      | r -> Ok r
      | exception e -> Error (Printexc.to_string e)
    in
    (execute, ignore)
  | Custom (_, f) ->
    let execute shard =
      try f shard with e -> Error (Printexc.to_string e)
    in
    (execute, ignore)
  | Remote addr ->
    let conn = ref None in
    let drop () =
      Option.iter Client.close !conn;
      conn := None
    in
    let execute shard =
      let connected =
        match !conn with
        | Some c -> Ok c
        | None -> (
          match Client.connect ~timeout:cfg.timeout addr with
          | Ok c ->
            conn := Some c;
            Ok c
          | Error _ as e -> e)
      in
      match connected with
      | Error _ as e -> e
      | Ok c -> (
        match Client.census_shard c shard with
        | Ok _ as ok -> ok
        | Error _ as e ->
          drop ();
          e)
    in
    (execute, fun () -> drop ())

(* --- orchestration --------------------------------------------------------- *)

type shared = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : int Queue.t;
  results : Census.result option array;
  had_failure : bool array;
  attempts : int array;
  mutable completed : int;
  mutable fatal : string option;
  mutable active : int;
  mutable dispatched : int;
  mutable retried : int;
  mutable recovered : int;
  mutable blacklisted : string list;
  mutable journal_out : out_channel option;
  shards : Census.shard array;
}

let append_journal st i r =
  match st.journal_out with
  | None -> ()
  | Some oc ->
    let s = st.shards.(i) in
    output_string oc (journal_entry ~lo:s.Census.lo ~hi:s.Census.hi r);
    output_char oc '\n';
    flush oc

let total st = Array.length st.shards

(* Runs on one systhread per worker. Holds [st.mutex] only around queue
   and bookkeeping; execution happens unlocked so workers overlap. *)
let worker_loop cfg st (w, hist) =
  let name = worker_name w in
  let execute, cleanup = make_executor cfg w in
  let streak = ref 0 in
  let rec take () =
    if st.fatal <> None || st.completed = total st then None
    else
      match Queue.take_opt st.queue with
      | Some i -> Some i
      | None ->
        Condition.wait st.nonempty st.mutex;
        take ()
  in
  let rec loop () =
    Mutex.lock st.mutex;
    match take () with
    | None -> Mutex.unlock st.mutex
    | Some i ->
      st.dispatched <- st.dispatched + 1;
      Telemetry.incr m_dispatched;
      Mutex.unlock st.mutex;
      let t0 = Unix.gettimeofday () in
      let s = st.shards.(i) in
      let outcome =
        match execute s with
        | Ok r when not (fits s r) ->
          Error
            (Printf.sprintf "reply is not a %s census on %d vertices"
               (Census.kind_name s.Census.kind) s.Census.n)
        | outcome -> outcome
      in
      Telemetry.observe hist
        (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
      (match outcome with
      | Ok r ->
        streak := 0;
        Mutex.lock st.mutex;
        (* only-first-completion: a shard is only ever in one worker's
           hands (requeue happens strictly on failure), but the guard
           keeps the accounting honest even if that invariant slips *)
        if st.results.(i) = None then begin
          st.results.(i) <- Some r;
          st.completed <- st.completed + 1;
          if st.had_failure.(i) then begin
            st.recovered <- st.recovered + 1;
            Telemetry.incr m_recovered
          end;
          append_journal st i r
        end;
        if st.completed = total st then Condition.broadcast st.nonempty;
        Mutex.unlock st.mutex;
        loop ()
      | Error msg ->
        incr streak;
        Mutex.lock st.mutex;
        st.had_failure.(i) <- true;
        st.attempts.(i) <- st.attempts.(i) + 1;
        if st.attempts.(i) >= cfg.max_attempts then begin
          st.fatal <-
            Some
              (Printf.sprintf
                 "shard [%d, %d) failed %d times; last error from %s: %s"
                 s.Census.lo s.Census.hi st.attempts.(i) name msg);
          Condition.broadcast st.nonempty;
          Mutex.unlock st.mutex
        end
        else begin
          st.retried <- st.retried + 1;
          Telemetry.incr m_retried;
          Queue.add i st.queue;
          Condition.broadcast st.nonempty;
          Mutex.unlock st.mutex;
          if !streak >= cfg.blacklist_after then begin
            (* this worker keeps failing while others may be fine: stop
               feeding it work; its requeued shard goes to the rest *)
            Telemetry.incr m_blacklisted;
            Mutex.lock st.mutex;
            st.blacklisted <- name :: st.blacklisted;
            Mutex.unlock st.mutex
          end
          else begin
            backoff_sleep
              (cfg.backoff *. (2.0 ** float_of_int (!streak - 1)));
            loop ()
          end
        end)
  in
  loop ();
  cleanup ();
  Mutex.lock st.mutex;
  st.active <- st.active - 1;
  if st.active = 0 && st.completed < total st && st.fatal = None then
    st.fatal <-
      Some
        (Printf.sprintf
           "all %d workers blacklisted with %d of %d shards outstanding"
           (List.length cfg.workers)
           (total st - st.completed)
           (total st));
  Condition.broadcast st.nonempty;
  Mutex.unlock st.mutex

let run cfg shard =
  if cfg.workers = [] then Error "Dispatch.run: no workers"
  else if cfg.max_attempts < 1 then Error "Dispatch.run: max_attempts < 1"
  else if cfg.blacklist_after < 1 then Error "Dispatch.run: blacklist_after < 1"
  else if not (cfg.timeout > 0.0) then
    Error (Printf.sprintf "Dispatch.run: timeout must be > 0 (got %g)" cfg.timeout)
  else begin
    match Census.validate_shard shard with
    | Error msg -> Error msg
    | Ok () ->
      let parts =
        if cfg.parts > 0 then cfg.parts else 4 * List.length cfg.workers
      in
      let shards = Array.of_list (Census.split shard ~parts) in
      let n_shards = Array.length shards in
      Telemetry.add m_shards n_shards;
      let parts = n_shards (* split may return fewer on narrow ranges *) in
      let index_of =
        let tbl = Hashtbl.create (2 * n_shards) in
        Array.iteri
          (fun i s -> Hashtbl.replace tbl (s.Census.lo, s.Census.hi) i)
          shards;
        fun key -> Hashtbl.find_opt tbl key
      in
      let header = journal_header shard ~parts in
      let journaled =
        match cfg.journal with
        | None -> Ok []
        | Some path ->
          load_journal path ~header ~index_of ~shard
      in
      match journaled with
      | Error msg -> Error msg
      | Ok journaled ->
        let st =
          {
            mutex = Mutex.create ();
            nonempty = Condition.create ();
            queue = Queue.create ();
            results = Array.make n_shards None;
            had_failure = Array.make n_shards false;
            attempts = Array.make n_shards 0;
            completed = 0;
            fatal = None;
            active = List.length cfg.workers;
            dispatched = 0;
            retried = 0;
            recovered = 0;
            blacklisted = [];
            journal_out = None;
            shards;
          }
        in
        let journal_hits = ref 0 in
        List.iter
          (fun (i, r) ->
            if st.results.(i) = None then begin
              st.results.(i) <- Some r;
              st.completed <- st.completed + 1;
              incr journal_hits;
              Telemetry.incr m_journal_hits
            end)
          journaled;
        Array.iteri
          (fun i r -> if r = None then Queue.add i st.queue)
          st.results;
        (match cfg.journal with
        | None -> ()
        | Some path ->
          let fresh =
            (not (Sys.file_exists path))
            || (Unix.stat path).Unix.st_size = 0
          in
          let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
          if fresh then begin
            output_string oc header;
            output_char oc '\n';
            flush oc
          end;
          st.journal_out <- Some oc);
        (* per-worker latency histograms: registration is mutex-guarded
           but meant for a single domain, so create them all before any
           worker thread starts *)
        let with_hist =
          List.map
            (fun w ->
              (w, Telemetry.histogram ("dispatch.latency_us." ^ worker_name w)))
            cfg.workers
        in
        let threads =
          List.map (fun wh -> Thread.create (worker_loop cfg st) wh) with_hist
        in
        List.iter Thread.join threads;
        Option.iter close_out_noerr st.journal_out;
        (match st.fatal with
        | Some msg -> Error msg
        | None ->
          let merged = ref None in
          Array.iter
            (fun r ->
              let r = Option.get r in
              merged :=
                Some
                  (match !merged with
                  | None -> r
                  | Some acc -> Census.merge_result acc r))
            st.results;
          Ok
            ( Option.get !merged,
              {
                shards = n_shards;
                journal_hits = !journal_hits;
                dispatched = st.dispatched;
                retried = st.retried;
                recovered = st.recovered;
                blacklisted = List.rev st.blacklisted;
              } ))
  end
