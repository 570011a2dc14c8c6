(* A deliberately small domainslib: one task at a time, chunked index
   ranges off an atomic counter, caller participates as worker 0. The
   contract that matters for the rest of the repo is determinism — every
   combinator reduces in index order or keeps the lowest-index witness,
   so parallel results coincide with the sequential ones. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable epoch : int;  (* bumped once per launched region *)
  mutable current : (unit -> unit) option;
  mutable pending : int;  (* spawned workers still inside the region *)
  mutable stopping : bool;
  mutable domains : unit Domain.t array;
}

let available_jobs () = Domain.recommended_domain_count ()

(* regions launched, chunks claimed off the atomic counter, and per-worker
   time spent inside a region (caller included). All updates are flat
   no-ops while telemetry is disabled. *)
let m_regions = Telemetry.counter "pool.regions"

let m_tasks = Telemetry.counter "pool.tasks_dispatched"

let m_busy = Telemetry.span "pool.busy"

let jobs t = t.jobs

(* Worker domains sleep between regions; [seen] is the last epoch this
   worker executed, so a broadcast wakes it exactly once per region. *)
let rec worker_loop pool seen =
  Mutex.lock pool.mutex;
  while pool.epoch = seen && not pool.stopping do
    Condition.wait pool.work_ready pool.mutex
  done;
  if pool.stopping then Mutex.unlock pool.mutex
  else begin
    let epoch = pool.epoch in
    let task = Option.get pool.current in
    Mutex.unlock pool.mutex;
    task ();
    Mutex.lock pool.mutex;
    pool.pending <- pool.pending - 1;
    if pool.pending = 0 then Condition.signal pool.work_done;
    Mutex.unlock pool.mutex;
    worker_loop pool epoch
  end

let create ?jobs () =
  let jobs =
    match jobs with
    | None -> available_jobs ()
    | Some j -> if j < 1 then invalid_arg "Pool.create: jobs < 1" else j
  in
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      current = None;
      pending = 0;
      stopping = false;
      domains = [||];
    }
  in
  if jobs > 1 then
    pool.domains <-
      Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
  pool

let shutdown pool =
  if Array.length pool.domains > 0 then begin
    Mutex.lock pool.mutex;
    pool.stopping <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    Array.iter Domain.join pool.domains;
    pool.domains <- [||]
  end

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Run [task] on every worker (caller included) and wait for all of them.
   [task] must not raise: region builders below wrap their body so the
   first exception is parked in an atomic and re-raised after the join,
   leaving the pool reusable. *)
let run_region pool (task : unit -> unit) =
  let exn_slot = Atomic.make None in
  Telemetry.incr m_regions;
  let guarded () =
    let t0 = Telemetry.start () in
    (try task ()
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore (Atomic.compare_and_set exn_slot None (Some (e, bt))));
    Telemetry.stop m_busy t0
  in
  if pool.jobs = 1 then guarded ()
  else begin
    Mutex.lock pool.mutex;
    pool.current <- Some guarded;
    pool.pending <- pool.jobs - 1;
    pool.epoch <- pool.epoch + 1;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    guarded ();
    Mutex.lock pool.mutex;
    while pool.pending > 0 do
      Condition.wait pool.work_done pool.mutex
    done;
    pool.current <- None;
    Mutex.unlock pool.mutex
  end;
  match Atomic.get exn_slot with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let chunk_count n chunk = (n + chunk - 1) / chunk

let default_fold_chunk pool n =
  (* a few chunks per worker keeps the tail balanced without paying the
     atomic counter per index *)
  max 1 (n / (4 * pool.jobs))

let parallel_find ?(chunk = 1) pool ~n ~init f =
  if chunk < 1 then invalid_arg "Pool.parallel_find: chunk < 1";
  if n <= 0 then None
  else if pool.jobs = 1 then begin
    let st = init () in
    let rec scan i =
      if i >= n then None
      else match f st i with Some _ as r -> r | None -> scan (i + 1)
    in
    scan 0
  end
  else begin
    let nchunks = chunk_count n chunk in
    let next = Atomic.make 0 in
    (* lowest-index witness so far; [max_int] = none. Workers claim chunks
       in ascending order, so once a witness precedes a chunk's first
       index the whole remaining range is dead. *)
    let best = Atomic.make (max_int, None) in
    let beats i = fst (Atomic.get best) > i in
    let rec install i v =
      let cur = Atomic.get best in
      if fst cur > i && not (Atomic.compare_and_set best cur (i, Some v)) then
        install i v
    in
    run_region pool (fun () ->
        let st = lazy (init ()) in
        let rec claim () =
          let c = Atomic.fetch_and_add next 1 in
          if c < nchunks && beats (c * chunk) then begin
            Telemetry.incr m_tasks;
            let lo = c * chunk and hi = min n ((c + 1) * chunk) in
            let st = Lazy.force st in
            let i = ref lo in
            let live = ref true in
            while !live && !i < hi do
              if not (beats !i) then live := false
              else begin
                (match f st !i with
                | Some v ->
                  install !i v;
                  live := false
                | None -> ());
                incr i
              end
            done;
            if !live then claim ()
          end
        in
        claim ());
    snd (Atomic.get best)
  end

let fold_chunks ?chunk pool ~n ~fold ~reduce ~zero =
  let chunk = match chunk with Some c -> c | None -> default_fold_chunk pool n in
  if chunk < 1 then invalid_arg "Pool.fold_chunks: chunk < 1";
  if n <= 0 then zero
  else begin
    let nchunks = chunk_count n chunk in
    let partial = Array.make nchunks zero in
    if pool.jobs = 1 then
      for c = 0 to nchunks - 1 do
        Telemetry.incr m_tasks;
        partial.(c) <- fold ~lo:(c * chunk) ~hi:(min n ((c + 1) * chunk))
      done
    else begin
      let next = Atomic.make 0 in
      run_region pool (fun () ->
          let rec claim () =
            let c = Atomic.fetch_and_add next 1 in
            if c < nchunks then begin
              Telemetry.incr m_tasks;
              partial.(c) <- fold ~lo:(c * chunk) ~hi:(min n ((c + 1) * chunk));
              claim ()
            end
          in
          claim ())
    end;
    (* chunk-ordered reduction keeps non-commutative merges deterministic *)
    Array.fold_left reduce zero partial
  end
