(** Readiness multiplexer for the serving event loop.

    [Unix.select] caps out at [FD_SETSIZE] (1024) descriptors and
    silently corrupts its bitmasks past that, so the serving layer never
    calls it: one-shot waits go through {!wait_readable} /
    {!wait_writable} (poll(2) on a single descriptor) and the event loop
    proper multiplexes through a {!t} — a registration table handed to
    poll(2) on every {!wait}, which has no descriptor-number limit. A
    wait costs time in proportion to the registered descriptors; a serve
    worker registers its wake pipe, the listening sockets and its own
    connections, a dozen or so.

    Readiness is level-triggered: a descriptor with unread input (or
    writable space, when write interest is registered) is reported again
    on every {!wait} until drained, so a loop that reads one bounded
    chunk per wakeup is fair across connections and never loses events.
    Peer hangup reports as {e readable} — the conventional shape: the
    reader drains what is buffered and then sees EOF from [read].

    All waits release the OCaml runtime lock, so other domains (pool
    workers, sibling event loops) keep running while one loop is parked.

    A {!t} is single-owner: exactly one domain registers, waits and
    reads the ready set. There is no internal locking — cross-domain
    wakeups are done by registering a pipe and writing a byte to it. *)

type t

val create : ?max_events:int -> unit -> t
(** [max_events] (default 256) bounds the ready batch returned by one
    {!wait}; excess ready descriptors surface on the next call
    (level-triggered, nothing is lost).
    @raise Invalid_argument if [max_events < 1]. *)

val close : t -> unit
(** Drop every registration. It closes no descriptor. Idempotent; the
    poller must not be used afterwards. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Register a descriptor with the given interest set. An invalid
    descriptor is not refused here; {!wait} reports it as an error.
    @raise Failure if the fd is already registered. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Replace the interest set of a registered descriptor. With neither
    interest the descriptor stays registered but reports only errors.
    @raise Failure if the fd is not registered. *)

val remove : t -> Unix.file_descr -> unit
(** Deregister. No-op if the descriptor was never added. Call it before
    [Unix.close]: the table holds fd numbers, and the kernel reuses a
    closed number for the next socket or pipe this process opens. *)

val wait : t -> timeout_ms:int -> int
(** Block until at least one registered descriptor is ready or the
    timeout elapses ([-1] = forever, [0] = poll). Returns the number of
    ready descriptors (0 on timeout or EINTR), readable through the
    accessors below until the next [wait]. *)

val ready_fd : t -> int -> Unix.file_descr
(** [ready_fd p i] for [0 <= i < wait p ~timeout_ms]. *)

val ready_read : t -> int -> bool
(** Readable — includes peer hangup, so read() will not block. *)

val ready_write : t -> int -> bool

val ready_error : t -> int -> bool
(** Error/invalid condition on the descriptor; close it. *)

(** {1 One-shot waits}

    Single-descriptor poll(2) round trips, for the blocking client and
    the drain-phase flush. Safe for any fd number, unlike select. *)

val wait_readable : Unix.file_descr -> float -> bool
(** [wait_readable fd seconds] is [true] when [fd] is readable (or hung
    up) within the timeout, [false] on timeout or EINTR. *)

val wait_writable : Unix.file_descr -> float -> bool
