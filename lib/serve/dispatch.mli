(** Fault-tolerant distributed census orchestrator.

    Splits one {!Census.shard} into parts, dispatches the parts
    concurrently across a mixed fleet of workers, and merges the
    results in ascending rank order — so the merged census is
    value-identical to {!Census.run_shard} on the undivided descriptor,
    including when workers die mid-run.

    {b Failure model.} A failed dispatch (socket error, remote timeout,
    malformed reply, a reply whose census kind or [n] does not match
    the shard, worker exception) requeues its shard for any
    healthy worker and backs the failing worker off exponentially; a
    worker failing [blacklist_after] times {e in a row} is blacklisted
    and its thread retired. The run as a whole fails only when a single
    shard accumulates [max_attempts] failures across workers, or every
    worker is blacklisted with shards outstanding. Stragglers are
    reclaimed by the remote call timeout: the timed-out shard requeues
    elsewhere while the straggler's eventual answer is discarded with
    its connection. Local shards run on a freshly spawned domain each
    and cannot be timed out (a domain cannot be killed).

    {b Journal.} With [journal = Some path], every completed shard is
    appended to [path] as one flushed JSON line (after a header line
    pinning kind/game/n/range/parts), so a killed run resumed with the
    same arguments recomputes only the missing shards. A journal whose
    header does not match the requested run is an error; entries of the
    wrong kind or [n] are skipped and recomputed. The format is
    documented in DESIGN.md ("Distributed census").

    Telemetry (under [--stats]): [dispatch.shards], [.dispatched],
    [.retried], [.recovered], [.journal_hits], [.blacklisted], and a
    per-worker latency histogram [dispatch.latency_us.<worker>]. *)

type worker =
  | Local of string
      (** In-process: runs each shard on a freshly spawned domain, so
          local workers genuinely parallelize (the orchestration threads
          themselves interleave on one domain). The string is a display
          name. *)
  | Remote of Serve.address
      (** A [bncg serve] endpoint, spoken to over a persistent typed
          {!Client} connection (closed and reopened after any error —
          a timed-out stream may carry a stale reply). *)
  | Custom of string * (Census.shard -> (Census.result, string) result)
      (** Injectable worker for tests: flaky, delayed and malformed
          behaviors without sockets. *)

val worker_name : worker -> string

type config = {
  workers : worker list;  (** must be non-empty *)
  parts : int;  (** shard count; [0] means [4 * length workers] *)
  max_attempts : int;  (** per-shard failure budget across workers *)
  blacklist_after : int;  (** consecutive failures retiring a worker *)
  backoff : float;
      (** base sleep after a failure; doubles per consecutive failure *)
  timeout : float;  (** per-call reply deadline for remote workers *)
  journal : string option;  (** checkpoint file; [None] disables *)
  atlas : Atlas.t option;
      (** equilibrium atlas consulted/populated by {!Local} workers'
          shard runs ({!Census.run_shard}). Remote workers use whatever
          atlas their server was started with. *)
}

val default_config : config
(** No workers (callers must supply the fleet), [parts = 0],
    3 attempts, blacklist after 3, 50ms base backoff, 30s timeout,
    no journal, no atlas. *)

type stats = {
  shards : int;  (** parts the run was split into *)
  journal_hits : int;  (** shards replayed from the journal *)
  dispatched : int;  (** dispatch attempts, including retries *)
  retried : int;  (** failed dispatches that were requeued *)
  recovered : int;  (** shards completed after at least one failure *)
  blacklisted : string list;  (** workers retired mid-run, in order *)
}

val run : config -> Census.shard -> (Census.result * stats, string) result
(** Orchestrate the full shard across the fleet. Blocks until every
    part completed (possibly replayed from the journal) or the run
    failed; never raises on worker failures. The merged result equals
    the sequential census on the same descriptor. *)
