(* Crash-safe append-only content-addressed store. See atlas.mli for the
   storage model and recovery rules; the discipline (length-prefixed
   checksummed records, fsync on roll, torn-tail skip on open) mirrors
   the dispatch checkpoint journal. *)

let magic = "bncgatl1"
let magic_len = 8
let header_len = 12 (* klen + vlen + crc32, u32le each *)
let max_klen = 1 lsl 24
let max_vlen = 1 lsl 28
let lock_name = "lock"
let shard_count = 16

(* Telemetry: registered once at module init, process-wide. *)
let c_hits = Telemetry.counter "atlas.hits"
let c_misses = Telemetry.counter "atlas.misses"
let c_appends = Telemetry.counter "atlas.appends"
let c_duplicates = Telemetry.counter "atlas.duplicates"
let c_rolls = Telemetry.counter "atlas.segment_rolls"
let c_torn = Telemetry.counter "atlas.torn_skipped"
let c_corrupt = Telemetry.counter "atlas.corrupt_skipped"

(* POSIX lockf record locks never conflict within one process, so the
   on-disk lock file only excludes OTHER processes. This registry of
   realpath'd directories excludes a second writer handle in-process. *)
let live_writers : (string, unit) Hashtbl.t = Hashtbl.create 8
let live_writers_lock = Mutex.create ()

let acquire_writer dir =
  let key = Unix.realpath dir in
  Mutex.lock live_writers_lock;
  let taken = Hashtbl.mem live_writers key in
  if not taken then Hashtbl.add live_writers key ();
  Mutex.unlock live_writers_lock;
  if taken then failwith (dir ^ ": atlas is locked by another writer");
  let fd =
    Unix.openfile (Filename.concat dir lock_name)
      [ Unix.O_RDWR; Unix.O_CREAT ]
      0o644
  in
  (try Unix.lockf fd Unix.F_TLOCK 0
   with Unix.Unix_error _ ->
     Unix.close fd;
     Mutex.lock live_writers_lock;
     Hashtbl.remove live_writers key;
     Mutex.unlock live_writers_lock;
     failwith (dir ^ ": atlas is locked by another writer"));
  (key, fd)

let release_writer key fd =
  Unix.close fd;
  Mutex.lock live_writers_lock;
  Hashtbl.remove live_writers key;
  Mutex.unlock live_writers_lock

type t = {
  dir : string;
  readonly : bool;
  max_segment_bytes : int;
  shards : (string, string) Hashtbl.t array;
  shard_locks : Mutex.t array;
  (* io_lock guards the segment fd, byte accounting, io_error and closed:
     held by add while writing and by flush and close while fsyncing. *)
  io_lock : Mutex.t;
  mutable closed : bool;
  mutable seg_fd : Unix.file_descr option;
  mutable seg_id : int;
  mutable seg_bytes : int;
  mutable seg_count : int;
  mutable disk_bytes : int;
  mutable io_error : string option;
  lock : (string * Unix.file_descr) option;
  (* Per-handle stats (process-wide telemetry is separate). *)
  s_hits : int Atomic.t;
  s_misses : int Atomic.t;
  s_appended : int Atomic.t;
  s_duplicates : int Atomic.t;
  torn_records : int;
  corrupt_records : int;
}

type stats = {
  segments : int;
  records : int;
  bytes : int;
  appended : int;
  duplicates : int;
  hits : int;
  misses : int;
  torn_records : int;
  corrupt_records : int;
}

type verify_report = {
  v_segments : int;
  v_records : int;
  v_live : int;
  v_bytes : int;
  v_torn : int;
  v_corrupt : int;
}

type compact_report = {
  c_segments_before : int;
  c_segments_after : int;
  c_records_before : int;
  c_live : int;
  c_bytes_before : int;
  c_bytes_after : int;
}

(* ---------- byte-level helpers ---------- *)

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let get_u32 s i =
  Char.code s.[i]
  lor (Char.code s.[i + 1] lsl 8)
  lor (Char.code s.[i + 2] lsl 16)
  lor (Char.code s.[i + 3] lsl 24)

let encode_record buf ~key ~value =
  put_u32 buf (String.length key);
  put_u32 buf (String.length value);
  put_u32 buf (Checksum.crc32 ~crc:(Checksum.crc32 key) value);
  Buffer.add_string buf key;
  Buffer.add_string buf value

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

let seg_path dir id = Filename.concat dir (Printf.sprintf "atlas-%06d.seg" id)

let list_segments dir =
  let is_digits s = String.for_all (fun c -> c >= '0' && c <= '9') s in
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         if
           String.length name = 16
           && String.sub name 0 6 = "atlas-"
           && String.sub name 12 4 = ".seg"
           && is_digits (String.sub name 6 6)
         then Some (int_of_string (String.sub name 6 6))
         else None)
  |> List.sort compare

(* ---------- segment scanning ---------- *)

type scan_result = {
  sc_end : int; (* offset of the last well-framed boundary *)
  sc_size : int; (* file size *)
  sc_valid : int;
  sc_torn : int; (* 0 or 1: torn tail / corrupt framing stop *)
  sc_corrupt : int; (* well-framed records failing their checksum *)
}

(* Scan [path] after its magic, calling [emit] for each valid record in
   order. Stops at a torn tail or corrupt framing; skips (but continues
   past) well-framed records with checksum mismatches, so every complete
   record is recovered. *)
let scan_segment path ~emit =
  let data = read_file path in
  let len = String.length data in
  if len < magic_len then Error `Short_magic
  else if String.sub data 0 magic_len <> magic then Error `Bad_magic
  else begin
    let pos = ref magic_len in
    let last_good = ref !pos in
    let valid = ref 0 and torn = ref 0 and corrupt = ref 0 in
    let stop = ref false in
    while (not !stop) && !pos < len do
      if len - !pos < header_len then begin
        torn := 1;
        stop := true
      end
      else begin
        let klen = get_u32 data !pos in
        let vlen = get_u32 data (!pos + 4) in
        let crc = get_u32 data (!pos + 8) in
        if klen > max_klen || vlen > max_vlen then begin
          (* insane lengths: corrupt framing, cannot re-sync *)
          torn := 1;
          stop := true
        end
        else if len - !pos - header_len < klen + vlen then begin
          torn := 1;
          stop := true
        end
        else begin
          let kpos = !pos + header_len in
          let actual =
            Checksum.crc32 ~pos:(kpos + klen) ~len:vlen
              ~crc:(Checksum.crc32 ~pos:kpos ~len:klen data)
              data
          in
          if actual <> crc then incr corrupt
          else begin
            incr valid;
            emit
              ~key:(String.sub data kpos klen)
              ~value:(String.sub data (kpos + klen) vlen)
          end;
          pos := kpos + klen + vlen;
          last_good := !pos
        end
      end
    done;
    Ok
      {
        sc_end = !last_good;
        sc_size = len;
        sc_valid = !valid;
        sc_torn = !torn;
        sc_corrupt = !corrupt;
      }
  end

(* ---------- index ---------- *)

let shard_index key = Hashtbl.hash key land (shard_count - 1)

let index_mem t key =
  let i = shard_index key in
  Mutex.protect t.shard_locks.(i) (fun () -> Hashtbl.mem t.shards.(i) key)

let index_add t key value =
  let i = shard_index key in
  Mutex.protect t.shard_locks.(i) (fun () -> Hashtbl.add t.shards.(i) key value)

let find t key =
  let i = shard_index key in
  let r =
    Mutex.protect t.shard_locks.(i) (fun () -> Hashtbl.find_opt t.shards.(i) key)
  in
  (match r with
  | Some _ ->
      Atomic.incr t.s_hits;
      Telemetry.incr c_hits
  | None ->
      Atomic.incr t.s_misses;
      Telemetry.incr c_misses);
  r

let index_size t =
  Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 t.shards

(* ---------- write path ---------- *)

let create_segment t id =
  let fd =
    Unix.openfile (seg_path t.dir id)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  write_all fd (Bytes.of_string magic);
  t.seg_fd <- Some fd;
  t.seg_id <- id;
  t.seg_bytes <- magic_len;
  t.seg_count <- t.seg_count + 1;
  t.disk_bytes <- t.disk_bytes + magic_len

(* io_lock held. fsync the finished segment, then start the next. *)
let roll_segment t =
  (match t.seg_fd with
  | Some fd ->
      Unix.fsync fd;
      Unix.close fd
  | None -> ());
  t.seg_fd <- None;
  create_segment t (t.seg_id + 1);
  Telemetry.incr c_rolls

(* io_lock held. A record that would overflow a non-empty segment goes
   into the next one. *)
let write_record t ~key ~value =
  let len = header_len + String.length key + String.length value in
  if t.seg_bytes > magic_len && t.seg_bytes + len > t.max_segment_bytes then
    roll_segment t;
  let buf = Buffer.create len in
  encode_record buf ~key ~value;
  write_all (Option.get t.seg_fd) (Buffer.to_bytes buf);
  t.seg_bytes <- t.seg_bytes + len;
  t.disk_bytes <- t.disk_bytes + len;
  Atomic.incr t.s_appended;
  Telemetry.incr c_appends

(* ---------- public API ---------- *)

let add t ~key ~value =
  if t.readonly then invalid_arg "Atlas.add: read-only handle";
  if String.length key > max_klen then invalid_arg "Atlas.add: key too large";
  if String.length value > max_vlen then
    invalid_arg "Atlas.add: value too large";
  Mutex.protect t.io_lock @@ fun () ->
  if t.closed then invalid_arg "Atlas.add: closed handle";
  if index_mem t key then begin
    Atomic.incr t.s_duplicates;
    Telemetry.incr c_duplicates
  end
  else begin
    (* Write before publishing, so [find] only serves what a segment
       holds. After an I/O error the record stays in memory only, and
       the next [flush] reports the error. *)
    (if t.io_error = None then
       try write_record t ~key ~value
       with e -> t.io_error <- Some (Printexc.to_string e));
    index_add t key value
  end

let flush t =
  Mutex.protect t.io_lock @@ fun () ->
  match t.io_error with
  | Some e -> failwith ("Atlas: append failed: " ^ e)
  | None -> Option.iter Unix.fsync t.seg_fd

let close t =
  Mutex.protect t.io_lock @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    Option.iter
      (fun fd ->
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        Unix.close fd)
      t.seg_fd;
    t.seg_fd <- None;
    Option.iter (fun (key, fd) -> release_writer key fd) t.lock
  end

let stats t =
  {
    segments = t.seg_count;
    records = index_size t;
    bytes = t.disk_bytes;
    appended = Atomic.get t.s_appended;
    duplicates = Atomic.get t.s_duplicates;
    hits = Atomic.get t.s_hits;
    misses = Atomic.get t.s_misses;
    torn_records = t.torn_records;
    corrupt_records = t.corrupt_records;
  }

let open_ ?(readonly = false) ?(max_segment_bytes = 8 * 1024 * 1024) dir =
  try
    if max_segment_bytes < 64 then
      invalid_arg "Atlas.open_: max_segment_bytes too small";
    if not (Sys.file_exists dir) then
      if readonly then failwith (dir ^ ": no such atlas directory")
      else Unix.mkdir dir 0o755;
    if not (Sys.is_directory dir) then failwith (dir ^ ": not a directory");
    let lock = if readonly then None else Some (acquire_writer dir) in
    try
      let shards = Array.init shard_count (fun _ -> Hashtbl.create 256) in
      let emit ~key ~value =
        let tbl = shards.(shard_index key) in
        if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key value
      in
      let ids = list_segments dir in
      let last_id = List.fold_left max (-1) ids in
      let torn = ref 0 and corrupt = ref 0 and disk = ref 0 and nsegs = ref 0 in
      List.iter
        (fun id ->
          let path = seg_path dir id in
          match scan_segment path ~emit with
          | Ok r ->
              incr nsegs;
              torn := !torn + r.sc_torn;
              corrupt := !corrupt + r.sc_corrupt;
              if (not readonly) && r.sc_end < r.sc_size then begin
                (* torn tail / corrupt framing: truncate back to the last
                   well-framed boundary so appends restart cleanly *)
                Unix.truncate path r.sc_end;
                disk := !disk + r.sc_end
              end
              else disk := !disk + r.sc_size
          | Error `Short_magic when id = last_id ->
              (* a crash during initial segment creation can leave a short
                 file; only tolerable at the tail of the id sequence *)
              incr nsegs;
              incr torn;
              if not readonly then Unix.truncate path 0
          | Error `Short_magic -> failwith (path ^ ": truncated segment magic")
          | Error `Bad_magic -> failwith (path ^ ": bad segment magic"))
        ids;
      if !torn > 0 then Telemetry.add c_torn !torn;
      if !corrupt > 0 then Telemetry.add c_corrupt !corrupt;
      let t =
        {
          dir;
          readonly;
          max_segment_bytes;
          shards;
          shard_locks = Array.init shard_count (fun _ -> Mutex.create ());
          io_lock = Mutex.create ();
          closed = false;
          seg_fd = None;
          seg_id = -1;
          seg_bytes = 0;
          seg_count = !nsegs;
          disk_bytes = !disk;
          io_error = None;
          lock;
          s_hits = Atomic.make 0;
          s_misses = Atomic.make 0;
          s_appended = Atomic.make 0;
          s_duplicates = Atomic.make 0;
          torn_records = !torn;
          corrupt_records = !corrupt;
        }
      in
      if not readonly then begin
        (* Open the tail segment for appends (creating it if the directory
           is empty or its file was truncated to zero by magic repair). *)
        if last_id < 0 then create_segment t 0
        else begin
          let path = seg_path dir last_id in
          let size = (Unix.stat path).Unix.st_size in
          if size < magic_len then begin
            (* truncated-to-zero magic repair above *)
            Unix.unlink path;
            t.seg_count <- t.seg_count - 1;
            create_segment t last_id
          end
          else begin
            t.seg_fd <-
              Some (Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644);
            t.seg_id <- last_id;
            t.seg_bytes <- size
          end
        end
      end;
      Ok t
    with e ->
      (* don't leak the writer slot on a failed open *)
      Option.iter (fun (key, fd) -> release_writer key fd) lock;
      raise e
  with
  | Failure m -> Error m
  | Invalid_argument m -> Error m
  | Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "%s: %s(%s): %s" dir fn arg (Unix.error_message e))

(* ---------- offline tools ---------- *)

let verify dir =
  try
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      failwith (dir ^ ": no such atlas directory");
    let ids = list_segments dir in
    let last_id = List.fold_left max (-1) ids in
    let live = Hashtbl.create 4096 in
    let records = ref 0
    and torn = ref 0
    and corrupt = ref 0
    and bytes = ref 0
    and nsegs = ref 0 in
    let emit ~key ~value:_ =
      if not (Hashtbl.mem live key) then Hashtbl.add live key ()
    in
    List.iter
      (fun id ->
        let path = seg_path dir id in
        match scan_segment path ~emit with
        | Ok r ->
            incr nsegs;
            records := !records + r.sc_valid;
            torn := !torn + r.sc_torn;
            corrupt := !corrupt + r.sc_corrupt;
            bytes := !bytes + r.sc_size
        | Error `Short_magic when id = last_id ->
            incr nsegs;
            incr torn;
            bytes := !bytes + (Unix.stat path).Unix.st_size
        | Error `Short_magic -> failwith (path ^ ": truncated segment magic")
        | Error `Bad_magic -> failwith (path ^ ": bad segment magic"))
      ids;
    Ok
      {
        v_segments = !nsegs;
        v_records = !records;
        v_live = Hashtbl.length live;
        v_bytes = !bytes;
        v_torn = !torn;
        v_corrupt = !corrupt;
      }
  with
  | Failure m -> Error m
  | Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "%s: %s(%s): %s" dir fn arg (Unix.error_message e))

let compact ?(max_segment_bytes = 8 * 1024 * 1024) dir =
  let lock = ref None in
  Fun.protect
    ~finally:(fun () ->
      match !lock with
      | Some (key, fd) -> release_writer key fd
      | None -> ())
    (fun () ->
      try
        if not (Sys.file_exists dir && Sys.is_directory dir) then
          failwith (dir ^ ": no such atlas directory");
        lock := Some (acquire_writer dir);
        let ids = list_segments dir in
        (* First-wins scan, preserving first-seen order so compacted
           segments replay identically. *)
        let seen = Hashtbl.create 4096 in
        let order = ref [] in
        let records = ref 0 and bytes_before = ref 0 in
        let emit ~key ~value =
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key value;
            order := key :: !order
          end
        in
        List.iter
          (fun id ->
            let path = seg_path dir id in
            match scan_segment path ~emit with
            | Ok r ->
                records := !records + r.sc_valid;
                bytes_before := !bytes_before + r.sc_size
            | Error `Short_magic ->
                bytes_before := !bytes_before + (Unix.stat path).Unix.st_size
            | Error `Bad_magic -> failwith (path ^ ": bad segment magic"))
          ids;
        let live = List.rev !order in
        let max_old = match List.rev ids with [] -> -1 | id :: _ -> id in
        (* Write fresh segments at ids above the old maximum: tmp file,
           fsync, rename — all before any old segment is deleted. *)
        let new_ids = ref [] in
        let next_id = ref (max_old + 1) in
        let buf = Buffer.create (64 * 1024) in
        Buffer.add_string buf magic;
        let bytes_after = ref 0 in
        let flush_segment () =
          if Buffer.length buf > magic_len || !new_ids = [] then begin
            let id = !next_id in
            incr next_id;
            let final = seg_path dir id in
            let tmp = final ^ ".tmp" in
            let fd =
              Unix.openfile tmp
                [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
                0o644
            in
            write_all fd (Buffer.to_bytes buf);
            Unix.fsync fd;
            Unix.close fd;
            Unix.rename tmp final;
            new_ids := id :: !new_ids;
            bytes_after := !bytes_after + Buffer.length buf;
            Buffer.clear buf;
            Buffer.add_string buf magic
          end
        in
        List.iter
          (fun key ->
            let value = Hashtbl.find seen key in
            let rec_len =
              header_len + String.length key + String.length value
            in
            if
              Buffer.length buf > magic_len
              && Buffer.length buf + rec_len > max_segment_bytes
            then flush_segment ();
            encode_record buf ~key ~value)
          live;
        flush_segment ();
        fsync_dir dir;
        (* All new segments durable: now drop the old ones. *)
        List.iter (fun id -> Unix.unlink (seg_path dir id)) ids;
        fsync_dir dir;
        Ok
          {
            c_segments_before = List.length ids;
            c_segments_after = List.length !new_ids;
            c_records_before = !records;
            c_live = List.length live;
            c_bytes_before = !bytes_before;
            c_bytes_after = !bytes_after;
          }
      with
      | Failure m -> Error m
      | Unix.Unix_error (e, fn, arg) ->
          Error
            (Printf.sprintf "%s: %s(%s): %s" dir fn arg
               (Unix.error_message e)))
