(** Long-lived request/response server for equilibrium workloads.

    [bncg serve] keeps a {!Pool} of worker domains warm and answers the
    newline-delimited JSON protocol of {!Rpc} over Unix domain sockets
    and TCP, so heavy traffic amortizes process and pool startup and —
    through a bounded sharded {!Lru_sharded} cache keyed by canonical
    graph form — never recomputes an equilibrium check it has already
    answered for an isomorphic graph.

    {b Concurrency model.} An event-driven core: a fixed set of worker
    {e domains}, each running one level-triggered poll(2) loop
    ({!Poller}) over its wake pipe, every listening socket and its own
    non-blocking connections. Each worker accepts its own connections,
    so a new client goes to whichever worker is waiting, not to one
    busy with a long census shard or canonical search; a connection a
    busy worker already owns still waits for it. When the process runs
    out of descriptors, a worker stops watching the listeners for 50 ms
    and keeps serving its connections. There is no per-connection
    thread; a worker owns its connections exclusively, reads bounded
    chunks per wakeup (fair across connections), and keeps one reusable
    read frame and write buffer per connection. Clients may pipeline
    any number of request lines; responses come back in request order
    because each worker answers a connection's buffered lines
    synchronously, in arrival order. When a connection's pending output
    exceeds [write_high_water], the worker stops consuming its input
    (read interest is paused) until the peer drains — a slow consumer
    backpressures itself without stalling its worker's other
    connections. Equilibrium checks dispatch onto the shared domain
    pool (one region at a time, a mutex serializes launchers); census
    shards run sequentially in deadline-checked slices — the intended
    way to parallelize a census is to fan disjoint [census-shard]
    ranges across requests.

    {b Caching.} One probe chain serves [info] and [check]: a key is
    looked up in the LRU, then in the atlas (when [atlas_dir] is set; a
    hit there warms the LRU), and a computed answer is stored in both.
    [info] results are keyed by the exact graph6 text only. A [check] is
    first probed under its exact text. Only when that misses both tiers,
    and the game is a basic one with the graph within
    {!Canon.max_search_vertices}, does the server compute the canonical
    form and probe [game + canonical form] the same way; a hit there
    is also put in the LRU under the exact text, so a repeated
    relabeling pays the search once. A computed verdict is stored under
    the canonical key only when it is isomorphism-invariant
    (equilibrium / disconnected): violation verdicts name concrete
    vertices, so they are only ever served for the exact same labeled
    graph. The cache stores rendered JSON fragments: hits and misses
    emit byte-identical responses. The LRU is split into 8 shards
    ({!Lru_sharded}): worker domains contend per shard, not globally;
    eviction is per-shard LRU.

    {b Robustness.} A request line over [max_request_bytes] gets a
    [too_large] error (and, when the overflow is detected before the
    newline, the connection closes since framing is lost); malformed
    JSON, bad envelopes, unknown methods, bad graph6 and oversized
    graphs all get structured error replies and never kill the server;
    the per-request deadline is enforced cooperatively (checked before
    heavy dispatch and between census slices). SIGPIPE is ignored; a
    client vanishing mid-reply only closes that connection.

    {b Telemetry.} [serve.requests], [serve.ok], [serve.errors],
    [serve.connections], [serve.cache_hits]/[serve.cache_misses],
    [serve.bytes_in]/[serve.bytes_out], a [serve.latency_us] histogram,
    a [serve.in_flight] gauge, and event-loop series:
    [serve.evloop.wakeups], a [serve.evloop.ready_batch] histogram
    (ready descriptors per wakeup) and a [serve.pipeline_depth]
    histogram (requests answered per connection pump) — all visible via
    [--stats] and the in-band [stats] method (the latter reports live
    values, including per-shard cache occupancy and hit/miss counts,
    whether or not telemetry is enabled). *)

type address =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host, port; port 0 binds an ephemeral port *)

val pp_address : Format.formatter -> address -> unit

type config = {
  addresses : address list;
  jobs : int;  (** pool width; 0 = all available cores *)
  workers : int;
      (** event-loop domains; 0 = all available cores. Independent of
          [jobs]: workers multiplex connections, the pool runs kernels *)
  cache_capacity : int;  (** result-cache entries, over all 8 shards *)
  max_request_bytes : int;
  max_graph_vertices : int;
      (** upper bound on [Graph.n] accepted by [info] and [check] — the
          cooperative-deadline story needs bounded single work items *)
  census_slice : int;
      (** ranks/masks per deadline check inside a census shard; >= 1 *)
  request_timeout : float;
      (** seconds; the cooperative deadline. Must be > 0 (nan is
          refused); [infinity] means no deadline *)
  write_high_water : int;
      (** bytes of pending output per connection beyond which the worker
          pauses reading that connection (backpressure) *)
  atlas_dir : string option;
      (** persistent equilibrium atlas directory ({!Atlas}): a
          warm-start tier under the LRU. Cache misses probe it before
          computing; computes append to it, so verdicts survive
          restarts and are shared with census runs. Responses are
          byte-identical with or without it (the atlas stores the same
          rendered fragments the cache does). *)
}

val default_config : config
(** No addresses; jobs 0; workers 0; cache 4096 entries in 8 shards;
    1 MiB requests; graphs to 512 vertices; 4096-rank census slices;
    30 s deadline; 1 MiB write high-water; no atlas. *)

type t

val start : config -> t
(** Bind every address (stale Unix-socket paths are replaced), spawn the
    pool and the worker domains, and return.
    @raise Invalid_argument on an empty address list, nonsensical
    limits or an unresolvable host; [Unix.Unix_error] if a bind fails.
    Either way, the sockets already bound are closed and their paths
    unlinked before the exception propagates. *)

val bound_addresses : t -> address list
(** Addresses actually bound — a [Tcp (_, 0)] request shows its
    resolved ephemeral port. *)

val worker_count : t -> int
(** Number of event-loop worker domains actually spawned. *)

val stop : t -> unit
(** Graceful shutdown: wake every worker, let each answer the complete
    request lines it has already received and flush pending replies
    (bounded), join the worker domains, close the listening sockets
    (connections still in their backlog are reset), shut the pool down
    (domains joined), close the atlas, and unlink Unix-socket paths
    last. Idempotent. *)

val run : ?on_ready:(t -> unit) -> config -> unit
(** [start], call [on_ready] with the live server (e.g. to print
    {!bound_addresses}), block until SIGINT or SIGTERM, then [stop].
    For the CLI. *)

(** {1 Client} *)

type client

val connect : ?timeout:float -> address -> client
(** [timeout] (default 30 s) bounds each {!call}'s wait for a reply
    line; [infinity] waits for ever.
    @raise Invalid_argument on a timeout that is not > 0 (nan included),
    before any socket is opened, or on an unresolvable host;
    [Unix.Unix_error] if the connect fails. Neither leaks a descriptor. *)

val call : client -> string -> string
(** [call c line] sends one request line and returns the matching
    response line (without the newline). Raises [Failure] on timeout or
    a dropped connection. *)

val send_line : client -> string -> unit
(** Write one request line without waiting for the reply — the
    pipelining half of {!call}. Pair with {!recv_line}. *)

val recv_line : client -> string
(** Read the next response line (without the newline), waiting up to the
    client timeout. Responses arrive in request order, so [n] calls of
    {!send_line} followed by [n] calls of [recv_line] match up 1:1. *)

val close_client : client -> unit

val with_client : ?timeout:float -> address -> (client -> 'a) -> 'a
