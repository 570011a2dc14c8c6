(** Fixed-size domain pool for data-parallel kernels.

    Two hot loops of this repository are embarrassingly parallel over an
    index range [0, n) and run on this pool: the per-agent equilibrium
    scan ({!parallel_find}) and census enumeration ({!fold_chunks}). The
    pool spawns [jobs - 1] worker domains once at creation (the caller
    participates as worker 0) and hands each parallel region out in
    contiguous chunks claimed from a shared atomic counter.

    Determinism contract: both combinators produce the same result as
    their sequential counterparts regardless of scheduling —
    {!parallel_find} returns the {e lowest-index} witness, and
    {!fold_chunks} combines per-chunk results in ascending chunk order. A
    pool with [jobs = 1] spawns no domains and runs every region inline,
    bit-for-bit identical to a plain loop.

    Not reentrant: a parallel region must not start another region on the
    same pool (workspace-per-domain, no nesting). Callbacks must confine
    mutation to per-domain state created by [init] or to state that only
    their own chunk touches. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains. [jobs] defaults to
    {!available_jobs}; raises [Invalid_argument] if [jobs < 1]. *)

val jobs : t -> int

val available_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism the
    runtime suggests. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the pool must not be used
    afterwards. Pools with [jobs = 1] have nothing to join. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down afterwards,
    also on exceptions. *)

val parallel_find :
  ?chunk:int -> t -> n:int -> init:(unit -> 's) -> ('s -> int -> 'r option) -> 'r option
(** First-witness-wins search: semantically identical to scanning
    [f state 0, f state 1, ...] and returning the first [Some].
    Later indices stop being evaluated once a witness with a smaller
    index is known, so the parallel run early-exits like the sequential
    one. [init] runs at most once per domain (lazily, on the domain that
    uses it) and typically allocates scratch such as a private graph copy
    and a BFS workspace. [chunk] (default 1) is the number of consecutive
    indices claimed at a time. Exceptions raised by [f] abort the region
    and one of them is re-raised after all workers have drained. *)

val fold_chunks :
  ?chunk:int ->
  t ->
  n:int ->
  fold:(lo:int -> hi:int -> 'a) ->
  reduce:('a -> 'a -> 'a) ->
  zero:'a ->
  'a
(** Coarse-grained variant for stages that want to own a whole index range
    (census shards): [fold ~lo ~hi] processes [[lo, hi)] and returns a
    partial result; partials are combined with [reduce] in ascending
    chunk order. [chunk] defaults to a size that yields a few chunks per
    worker. Exceptions raised by [fold] propagate as in {!parallel_find}. *)
