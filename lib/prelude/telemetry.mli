(** Process-wide, domain-safe solver telemetry.

    Long census / hunt / equilibrium-scan runs are opaque without counters:
    how many BFS calls ran, how many swap candidates were pruned, where the
    wall-clock went per shard. This module is the measurement substrate —
    named counters, gauges, nanosecond span timers and bounded histograms
    registered once at module-initialisation time and updated from any
    domain.

    {b Zero-cost-when-off contract.} All of it sits behind one process-wide
    [enabled] switch (a flat [bool ref]). Every update operation first reads
    that flag and returns immediately when telemetry is off: no allocation,
    no atomic traffic, no clock syscall — just a load and a conditional
    branch. Hot paths may therefore stay instrumented unconditionally; the
    disabled-mode overhead is within benchmark noise. bench/e2e measures
    the enabled-mode cost as its [trace_overhead] row (traced over untraced
    median), and [make bench-ab] gates the untraced end-to-end rows.

    {b Domain safety.} Metric cells are [Atomic.t] ints; increments from
    concurrent {!Pool.fold_chunks} callbacks lose no counts. Metric
    {e registration} is mutex-protected but intended for module-init time
    (single domain); do not create metrics inside parallel regions.

    {b Determinism caveat.} Counter totals are deterministic for a fixed
    workload, but early-exiting parallel scans ({!Pool.parallel_find}) may
    evaluate a scheduling-dependent set of indices, so counters incremented
    inside them can vary run to run even though results never do. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Flip the global switch. Typically driven by [--stats]/[--stats-json] in
    the CLI, [BNCG_STATS] in the experiment harness and benchmarks. *)

val reset : unit -> unit
(** Zero every registered metric (between runs; keeps registrations). *)

(** {1 Metric handles}

    Creation is idempotent per name: asking again for an existing name of
    the same kind returns the same handle, so test code can re-request
    handles freely. A name collision across kinds raises
    [Invalid_argument]. *)

type counter

val counter : string -> counter
(** Monotonically increasing event count. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** [add c k] bumps by [k] ([k >= 0]); no-op when disabled. *)

val counter_value : counter -> int

type gauge

val gauge : string -> gauge
(** Last-write-wins instantaneous value (e.g. the index of the violating
    agent found by the last equilibrium check). *)

val set_gauge : gauge -> int -> unit

val gauge_value : gauge -> int

type span

val span : string -> span
(** Accumulating wall-clock timer: total nanoseconds plus call count. *)

val start : unit -> int
(** Monotonic timestamp in nanoseconds, or [0] when disabled. Pair with
    {!stop}; the int round-trip keeps the disabled path allocation-free.
    Spans nest freely — the state lives in the caller, not the metric. *)

val stop : span -> int -> unit
(** [stop sp t0] adds [now - t0] to [sp] and bumps its call count. Ignores
    [t0 = 0], so a span opened while disabled records nothing even if
    telemetry was enabled in between. *)

val with_span : span -> (unit -> 'a) -> 'a
(** Convenience wrapper; records also when [f] raises. Calls [f] directly
    (no timing, no allocation beyond the closure) when disabled. *)

val span_ns : span -> int

val span_count : span -> int

type histogram

val histogram : string -> histogram
(** Bounded log2-bucketed distribution of nonnegative int samples: bucket
    [i] counts values in [[2^i, 2^(i+1))] (bucket 0 also catches [v <= 1]),
    clamped to {!histogram_buckets} buckets. Also tracks count and sum. *)

val histogram_buckets : int

val observe : histogram -> int -> unit

val histogram_count : histogram -> int

val histogram_sum : histogram -> int

val histogram_bucket : histogram -> int -> int
(** [histogram_bucket h i] for [0 <= i < histogram_buckets]. *)

(** {1 Reporting} *)

type row = { name : string; kind : string; value : int }
(** One scalar of the snapshot. Counters and gauges yield one row each;
    a span yields [<name>.ns] and [<name>.calls]; a histogram yields
    [<name>.count], [<name>.sum] and one [<name>.le_2^k] row per nonzero
    bucket. *)

val rows : unit -> row list
(** Snapshot of every registered metric, sorted by name. *)

val print_report : unit -> unit
(** Sorted three-column table ({!Table}) on stdout. *)

val write_json : string -> unit
(** Dump {!rows} as a JSON array of [{"name", "kind", "value"}] objects. *)
