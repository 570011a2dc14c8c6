(** Crash-safe, append-only, content-addressed verdict store.

    The atlas maps opaque string keys (canonical form / graph6 + game
    version, namespaced by the caller) to opaque string values
    (rendered verdict / witness fragments). It is the disk-backed tier
    under the serve LRUs and the persistent memo for census shards:
    computation anywhere makes every future request faster.

    {b Storage model.} A directory of append-only segment files
    [atlas-NNNNNN.seg], each starting with an 8-byte magic and holding
    length-prefixed, CRC-32-checksummed records
    [klen:u32le][vlen:u32le][crc32(key+value):u32le][key][value].
    Segments are fsynced when rolled. The segments are the only store:
    open rebuilds an in-memory hash index (sharded by key hash) by
    scanning every segment.

    {b Recovery rules} (applied per segment on open/verify/compact):
    a truncated record at end of file is a {e torn tail} — scanning
    stops and a writer truncates the file back to the last well-framed
    boundary; a well-framed record whose checksum mismatches is
    {e corrupt} — it is skipped (never served) and scanning continues;
    an insane length field is corrupt framing — scanning stops as for
    a torn tail. First write wins: when the same key appears twice the
    earlier record is authoritative.

    {b Concurrency.} Serve workers and census shards share one handle.
    [find] takes one shard lock of the index. [add] writes its record to
    the current segment under one I/O lock, then inserts it into the
    index, so [find] only serves records a segment holds. A [lock] file
    ([lockf]) enforces a single writer per directory; read-only handles
    skip it. *)

type t

val open_ :
  ?readonly:bool -> ?max_segment_bytes:int -> string -> (t, string) result
(** [open_ dir] opens (creating if needed, unless [readonly]) the atlas
    in [dir]. [max_segment_bytes] (default 8 MiB) bounds segment size
    before rolling; a single over-sized record still gets written, in a
    segment of its own. Errors: missing directory in read-only mode,
    another live writer holding the lock, or a non-tail segment with a
    damaged magic. *)

val find : t -> string -> string option
(** Index lookup; bumps [atlas.hits]/[atlas.misses]. *)

val add : t -> key:string -> value:string -> unit
(** First write wins: if [key] is already present (loaded or added)
    this is a no-op counted as a duplicate. Otherwise the record is
    written to the current segment (rolling it at [max_segment_bytes])
    and then becomes visible to [find]. Once [add] returns, the record
    survives the death of the process; it survives power loss once a
    later [flush] or [close] returns. An I/O error is never raised here:
    the pair stays visible in memory, further writes stop, and the next
    [flush] reports it. Raises [Invalid_argument] on a read-only or
    closed handle. *)

val flush : t -> unit
(** Fsync the current segment. Raises [Failure] if an earlier [add] hit
    an I/O error (e.g. disk full); otherwise a no-op on read-only and
    closed handles. *)

val close : t -> unit
(** Fsync and close the current segment and release the writer lock.
    Idempotent. [find] keeps answering from the in-memory index after
    close; [add] raises. *)

type stats = {
  segments : int;  (** live segment files *)
  records : int;  (** distinct keys in the index *)
  bytes : int;  (** total segment bytes on disk *)
  appended : int;  (** records written by this handle *)
  duplicates : int;  (** [add]s dropped by first-write-wins *)
  hits : int;
  misses : int;
  torn_records : int;  (** torn tails skipped at open *)
  corrupt_records : int;  (** checksum-failed records skipped at open *)
}

val stats : t -> stats

type verify_report = {
  v_segments : int;
  v_records : int;  (** well-framed records with valid checksums *)
  v_live : int;  (** distinct keys after first-write-wins *)
  v_bytes : int;
  v_torn : int;  (** torn tails (incl. corrupt-framing stops) *)
  v_corrupt : int;  (** well-framed records failing their checksum *)
}

val verify : string -> (verify_report, string) result
(** Re-read every segment in [dir] from byte 0 and checksum every
    record, under the same recovery rules as {!open_}. Does not take the
    writer lock, so it can audit a directory that is being served (it
    sees a consistent prefix). Errors where {!open_} does: an unreadable
    directory, a bad magic, or a truncated magic on any segment but the
    last. *)

type compact_report = {
  c_segments_before : int;
  c_segments_after : int;
  c_records_before : int;  (** valid records scanned, incl. duplicates *)
  c_live : int;  (** records rewritten *)
  c_bytes_before : int;
  c_bytes_after : int;
}

val compact :
  ?max_segment_bytes:int -> string -> (compact_report, string) result
(** Rewrite live records (first-write-wins, valid checksums only) into
    fresh segments and delete the old ones. Takes the
    writer lock for the duration. Crash-safe ordering: new segments are
    written to temp files, fsynced and renamed into place at ids above
    the old maximum {e before} any old segment is unlinked, so a crash
    at any point leaves a directory that opens to the same index
    (transient duplicates are harmless under first-write-wins because
    values are identical). *)
