(* Atlas: crash-safe append-only content-addressed store.

   Covers the CRC-32 helper, round-trips across reopen, first-write-wins
   dedup, segment rolls, recovery rules (torn tail at every byte offset
   of the last record, checksum corruption, open and verify agreeing on
   damage), synchronous appends (a fresh open sees every returned add),
   SIGKILL crash injection via the atlas_crash_writer helper executable,
   verify/compact, locking, and a qcheck randomized round-trip.
   Serve/census byte-identity with the atlas on vs off lives in
   test_atlas_identity.ml. *)

open Test_helpers

let check_str = Alcotest.(check string)
let check_str_opt = Alcotest.(check (option string))

(* ---------- temp-dir plumbing ---------- *)

let fresh_dir tag =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    let d =
      Filename.concat base
        (Printf.sprintf "bncg_atlas_%s_%d_%d" tag (Unix.getpid ()) i)
    in
    if Sys.file_exists d then go (i + 1) else d
  in
  go 0

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir tag f =
  let d = fresh_dir tag in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let open_exn ?readonly ?max_segment_bytes dir =
  match Atlas.open_ ?readonly ?max_segment_bytes dir with
  | Ok t -> t
  | Error m -> Alcotest.failf "Atlas.open_ %s: %s" dir m

let with_atlas ?readonly ?max_segment_bytes dir f =
  let t = open_exn ?readonly ?max_segment_bytes dir in
  Fun.protect ~finally:(fun () -> Atlas.close t) (fun () -> f t)

let populate dir kvs =
  with_atlas dir (fun t ->
      List.iter (fun (k, v) -> Atlas.add t ~key:k ~value:v) kvs)

let seg0 dir = Filename.concat dir "atlas-000000.seg"

(* Mirror of the on-disk record framing, for tests that forge raw
   segment bytes (duplicate records). *)
let encode_raw ~key ~value =
  let buf = Buffer.create 64 in
  let u32 v =
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))
  in
  u32 (String.length key);
  u32 (String.length value);
  u32 (Checksum.crc32 ~crc:(Checksum.crc32 key) value);
  Buffer.add_string buf key;
  Buffer.add_string buf value;
  Buffer.contents buf

let append_raw path s =
  let oc =
    open_out_gen [ Open_binary; Open_append; Open_wronly ] 0o644 path
  in
  output_string oc s;
  close_out oc

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let rec_len k v = 12 + String.length k + String.length v

(* ---------- checksum ---------- *)

let test_crc32_vector () =
  (* the standard CRC-32 check value *)
  check_int "123456789" 0xCBF43926 (Checksum.crc32 "123456789");
  check_int "empty" 0 (Checksum.crc32 "");
  check_int "chained = concatenated"
    (Checksum.crc32 "hello world")
    (Checksum.crc32 ~crc:(Checksum.crc32 "hello ") "world");
  check_int "slice"
    (Checksum.crc32 "345")
    (Checksum.crc32 ~pos:2 ~len:3 "12345678");
  check_int "bytes agree"
    (Checksum.crc32 "xyzzy")
    (Checksum.crc32_bytes (Bytes.of_string "xyzzy"))

(* ---------- basic round trips ---------- *)

let kvs3 =
  [ ("alpha", "AAAA"); ("beta", "BBBBBBBB"); ("gamma", "CCCCCC") ]

let test_roundtrip () =
  with_dir "rt" @@ fun dir ->
  populate dir kvs3;
  with_atlas dir (fun t ->
      List.iter
        (fun (k, v) -> check_str_opt k (Some v) (Atlas.find t k))
        kvs3;
      check_str_opt "absent" None (Atlas.find t "delta");
      let s = Atlas.stats t in
      check_int "records" 3 s.Atlas.records;
      check_int "hits" 3 s.Atlas.hits;
      check_int "misses" 1 s.Atlas.misses)

let test_first_write_wins () =
  with_dir "dup" @@ fun dir ->
  with_atlas dir (fun t ->
      Atlas.add t ~key:"k" ~value:"first";
      Atlas.add t ~key:"k" ~value:"second";
      check_str_opt "in session" (Some "first") (Atlas.find t "k");
      check_int "duplicates" 1 (Atlas.stats t).Atlas.duplicates);
  with_atlas dir (fun t ->
      check_str_opt "after reopen" (Some "first") (Atlas.find t "k");
      (* re-adding a loaded key is also a duplicate *)
      Atlas.add t ~key:"k" ~value:"third";
      check_str_opt "still first" (Some "first") (Atlas.find t "k"))

let test_segment_roll () =
  with_dir "roll" @@ fun dir ->
  let kvs =
    List.init 50 (fun i ->
        (Printf.sprintf "key-%03d" i, String.make 20 (Char.chr (65 + (i mod 26)))))
  in
  with_atlas ~max_segment_bytes:128 dir (fun t ->
      List.iter (fun (k, v) -> Atlas.add t ~key:k ~value:v) kvs;
      Atlas.flush t;
      check_true "rolled" ((Atlas.stats t).Atlas.segments > 1));
  with_atlas dir (fun t ->
      List.iter
        (fun (k, v) -> check_str_opt k (Some v) (Atlas.find t k))
        kvs;
      check_int "records" 50 (Atlas.stats t).Atlas.records)

let test_oversized_record () =
  with_dir "big" @@ fun dir ->
  let big = String.make 500 'Z' in
  with_atlas ~max_segment_bytes:64 dir (fun t ->
      Atlas.add t ~key:"small1" ~value:"v1";
      Atlas.add t ~key:"big" ~value:big;
      Atlas.add t ~key:"small2" ~value:"v2";
      Atlas.flush t);
  with_atlas dir (fun t ->
      check_str_opt "small1" (Some "v1") (Atlas.find t "small1");
      check_str_opt "big" (Some big) (Atlas.find t "big");
      check_str_opt "small2" (Some "v2") (Atlas.find t "small2"))

(* ---------- recovery: torn tails and corruption ---------- *)

let test_torn_tail_every_offset () =
  let last_len = rec_len "gamma" "CCCCCC" in
  let boundary =
    8 + rec_len "alpha" "AAAA" + rec_len "beta" "BBBBBBBB"
  in
  for j = 0 to last_len - 1 do
    with_dir (Printf.sprintf "torn%d" j) @@ fun dir ->
    populate dir kvs3;
    Unix.truncate (seg0 dir) (boundary + j);
    with_atlas dir (fun t ->
        let s = Atlas.stats t in
        check_int "torn" (if j = 0 then 0 else 1) s.Atlas.torn_records;
        check_str_opt "alpha" (Some "AAAA") (Atlas.find t "alpha");
        check_str_opt "beta" (Some "BBBBBBBB") (Atlas.find t "beta");
        check_str_opt "gamma gone" None (Atlas.find t "gamma"));
    (* the writer truncated back to the last well-framed boundary *)
    check_int "truncated" boundary ((Unix.stat (seg0 dir)).Unix.st_size);
    with_atlas dir (fun t ->
        check_int "clean reopen" 0 (Atlas.stats t).Atlas.torn_records;
        check_str_opt "alpha" (Some "AAAA") (Atlas.find t "alpha"))
  done

let test_corrupt_value_byte () =
  with_dir "corv" @@ fun dir ->
  populate dir kvs3;
  (* flip a byte inside beta's value *)
  flip_byte (seg0 dir) (8 + rec_len "alpha" "AAAA" + 12 + 4 + 2);
  with_atlas dir (fun t ->
      let s = Atlas.stats t in
      check_int "corrupt" 1 s.Atlas.corrupt_records;
      check_int "torn" 0 s.Atlas.torn_records;
      check_str_opt "alpha survives" (Some "AAAA") (Atlas.find t "alpha");
      check_str_opt "beta rejected" None (Atlas.find t "beta");
      (* scanning continued past the damaged record *)
      check_str_opt "gamma survives" (Some "CCCCCC") (Atlas.find t "gamma"));
  match Atlas.verify dir with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check_int "v_records" 2 r.Atlas.v_records;
      check_int "v_corrupt" 1 r.Atlas.v_corrupt;
      check_int "v_torn" 0 r.Atlas.v_torn

let test_corrupt_crc_byte () =
  with_dir "corc" @@ fun dir ->
  populate dir kvs3;
  (* flip a byte of beta's stored crc field *)
  flip_byte (seg0 dir) (8 + rec_len "alpha" "AAAA" + 9);
  with_atlas dir (fun t ->
      check_int "corrupt" 1 (Atlas.stats t).Atlas.corrupt_records;
      check_str_opt "beta rejected" None (Atlas.find t "beta");
      check_str_opt "gamma survives" (Some "CCCCCC") (Atlas.find t "gamma"))

(* The segments are the only store: after a clean close, open_ must
   see the same damage verify does and never serve the damaged key. *)
let test_reopen_agrees_with_verify () =
  with_dir "agree" @@ fun dir ->
  populate dir kvs3;
  flip_byte (seg0 dir) (8 + rec_len "alpha" "AAAA" + 12 + 4 + 2);
  let v =
    match Atlas.verify dir with Ok r -> r | Error m -> Alcotest.fail m
  in
  with_atlas dir (fun t ->
      let s = Atlas.stats t in
      check_int "corrupt" 1 s.Atlas.corrupt_records;
      check_int "corrupt = verify" v.Atlas.v_corrupt s.Atlas.corrupt_records;
      check_int "torn = verify" v.Atlas.v_torn s.Atlas.torn_records;
      check_int "records = verify live" v.Atlas.v_live s.Atlas.records;
      check_str_opt "damaged key not served" None (Atlas.find t "beta"))

(* add returns only once its record is in a segment, so a fresh open
   of the directory sees it without a flush or close. *)
let test_add_visible_to_fresh_open () =
  with_dir "sync" @@ fun dir ->
  with_atlas dir @@ fun t ->
  for i = 1 to 20 do
    let key = Printf.sprintf "sync-%02d" i in
    Atlas.add t ~key ~value:(string_of_int i);
    with_atlas ~readonly:true dir (fun ro ->
        check_str_opt key (Some (string_of_int i)) (Atlas.find ro key))
  done

(* ---------- SIGKILL crash injection ---------- *)

(* mirrors atlas_crash_writer.value_of *)
let crash_value i =
  Printf.sprintf "value-%06d-%s" i (String.make (i mod 40) 'x')

let test_sigkill_mid_append () =
  with_dir "kill" @@ fun dir ->
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "atlas_crash_writer.exe"
  in
  let flush_at = 200 in
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process exe
      [| exe; dir; string_of_int flush_at; "4096" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "<eof>" in
  check_str "writer reached durable prefix" "ready" line;
  (* let it race ahead so the kill lands mid-append *)
  Unix.sleepf 0.02;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  close_in ic;
  (* the kill released the writer lock; reopen and audit *)
  with_atlas dir (fun t ->
      let s = Atlas.stats t in
      check_true "at most one torn record" (s.Atlas.torn_records <= 1);
      check_int "no corrupt records" 0 s.Atlas.corrupt_records;
      (* every record up to the first gap must be present with the exact
         deterministic value (appends are ordered, so the on-disk state
         is a contiguous prefix plus at most one torn tail) *)
      let m = ref 0 in
      let stop = ref false in
      while not !stop do
        match Atlas.find t (Printf.sprintf "crash:%06d" !m) with
        | Some v ->
            check_str (Printf.sprintf "value %d" !m) (crash_value !m) v;
            incr m
        | None -> stop := true
      done;
      check_true
        (Printf.sprintf "flushed prefix durable (%d >= %d)" !m (flush_at + 1))
        (!m >= flush_at + 1);
      check_int "index is exactly the prefix" !m s.Atlas.records);
  match Atlas.verify dir with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check_int "verify clean after repair" 0 r.Atlas.v_torn;
      check_int "verify no corruption" 0 r.Atlas.v_corrupt

(* ---------- verify / compact ---------- *)

let test_verify_healthy () =
  with_dir "vh" @@ fun dir ->
  populate dir kvs3;
  match Atlas.verify dir with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check_int "segments" 1 r.Atlas.v_segments;
      check_int "records" 3 r.Atlas.v_records;
      check_int "live" 3 r.Atlas.v_live;
      check_int "torn" 0 r.Atlas.v_torn;
      check_int "corrupt" 0 r.Atlas.v_corrupt;
      check_int "bytes" ((Unix.stat (seg0 dir)).Unix.st_size) r.Atlas.v_bytes

let test_compact () =
  with_dir "cp" @@ fun dir ->
  populate dir kvs3;
  (* forge a duplicate (first write must win through compaction) and
     corrupt one record (must be dropped) *)
  append_raw (seg0 dir) (encode_raw ~key:"alpha" ~value:"ZZZZ");
  flip_byte (seg0 dir) (8 + rec_len "alpha" "AAAA" + 12 + 4 + 2);
  (match Atlas.compact dir with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check_int "records before (valid)" 3 r.Atlas.c_records_before;
      check_int "live" 2 r.Atlas.c_live;
      check_int "one old segment" 1 r.Atlas.c_segments_before;
      check_true "fewer bytes"
        (r.Atlas.c_bytes_after < r.Atlas.c_bytes_before));
  check_false "old segment deleted" (Sys.file_exists (seg0 dir));
  (match Atlas.verify dir with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check_int "post records" 2 r.Atlas.v_records;
      check_int "post live" 2 r.Atlas.v_live;
      check_int "post corrupt" 0 r.Atlas.v_corrupt);
  with_atlas dir (fun t ->
      check_str_opt "first write survived compaction" (Some "AAAA")
        (Atlas.find t "alpha");
      check_str_opt "corrupt beta dropped" None (Atlas.find t "beta");
      check_str_opt "gamma kept" (Some "CCCCCC") (Atlas.find t "gamma"))

(* A short magic is a crash while creating a segment, so only the last
   segment may have one. verify refuses exactly what open_ refuses. *)
let test_verify_short_magic () =
  with_dir "short" @@ fun dir ->
  let kvs = List.init 6 (fun i -> (Printf.sprintf "k%d" i, String.make 40 'v')) in
  with_atlas ~max_segment_bytes:64 dir (fun t ->
      List.iter (fun (k, v) -> Atlas.add t ~key:k ~value:v) kvs;
      check_int "six segments" 6 (Atlas.stats t).Atlas.segments);
  let last = Filename.concat dir "atlas-000005.seg" in
  Unix.truncate last 4;
  (match Atlas.verify dir with
  | Ok r -> check_int "short tail magic is a torn tail" 1 r.Atlas.v_torn
  | Error m -> Alcotest.failf "verify with a short tail magic: %s" m);
  Unix.truncate (seg0 dir) 4;
  let open_err =
    match Atlas.open_ ~readonly:true dir with
    | Ok t ->
        Atlas.close t;
        Alcotest.fail "open_ must refuse a short non-tail magic"
    | Error m -> m
  in
  match Atlas.verify dir with
  | Ok _ -> Alcotest.fail "verify must refuse a short non-tail magic"
  | Error m -> check_str "verify's error is open_'s" open_err m

(* ---------- locking / handle misuse ---------- *)

let test_writer_lock () =
  with_dir "lock" @@ fun dir ->
  with_atlas dir (fun t ->
      Atlas.add t ~key:"k" ~value:"v";
      (match Atlas.open_ dir with
      | Ok t2 ->
          Atlas.close t2;
          Alcotest.fail "second writer must be rejected"
      | Error _ -> ());
      match Atlas.open_ ~readonly:true dir with
      | Ok ro -> Atlas.close ro
      | Error m -> Alcotest.failf "readonly open: %s" m);
  (* lock released by close *)
  with_atlas dir (fun t -> check_str_opt "k" (Some "v") (Atlas.find t "k"))

let test_readonly_add_raises () =
  with_dir "ro" @@ fun dir ->
  populate dir kvs3;
  with_atlas ~readonly:true dir (fun t ->
      check_str_opt "finds" (Some "AAAA") (Atlas.find t "alpha");
      match Atlas.add t ~key:"x" ~value:"y" with
      | () -> Alcotest.fail "read-only add must raise"
      | exception Invalid_argument _ -> ())

let test_missing_dir_readonly () =
  let dir = fresh_dir "missing" in
  match Atlas.open_ ~readonly:true dir with
  | Ok t ->
      Atlas.close t;
      Alcotest.fail "read-only open of a missing dir must fail"
  | Error _ -> ()

(* ---------- qcheck randomized round-trip ---------- *)

let gen_kvs =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (pair
         (string_size ~gen:printable (int_range 0 24))
         (string_size (int_range 0 64))))

let prop_roundtrip kvs =
  let dir = fresh_dir "qc" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* model: first write wins *)
  let model = Hashtbl.create 64 in
  List.iter
    (fun (k, v) -> if not (Hashtbl.mem model k) then Hashtbl.add model k v)
    kvs;
  populate dir kvs;
  with_atlas dir @@ fun t ->
  Hashtbl.fold (fun k v acc -> acc && Atlas.find t k = Some v) model true
  && Atlas.find t "\x00never-a-key\x01" = None
  && (Atlas.stats t).Atlas.records = Hashtbl.length model

let suite =
  [
    case "crc32: known vectors, chaining, slices" test_crc32_vector;
    case "roundtrip across reopen + stats" test_roundtrip;
    case "first write wins (session and disk)" test_first_write_wins;
    case "segment roll at max_segment_bytes" test_segment_roll;
    case "oversized record gets its own segment" test_oversized_record;
    case "torn tail at every byte offset of last record"
      test_torn_tail_every_offset;
    case "corrupt value byte: skipped, scan continues" test_corrupt_value_byte;
    case "corrupt crc byte: skipped" test_corrupt_crc_byte;
    case "reopen after clean close agrees with verify"
      test_reopen_agrees_with_verify;
    case "add is visible to a fresh read-only open"
      test_add_visible_to_fresh_open;
    case "SIGKILL mid-append: contiguous prefix recovered"
      test_sigkill_mid_append;
    case "verify: healthy directory" test_verify_healthy;
    case "verify: short magic only on the last segment"
      test_verify_short_magic;
    case "compact: drops duplicates and corrupt records" test_compact;
    case "writer lock excludes second writer" test_writer_lock;
    case "read-only add raises" test_readonly_add_raises;
    case "read-only open of missing dir fails" test_missing_dir_readonly;
    qcheck ~count:60 "qcheck: randomized batch roundtrip" gen_kvs
      prop_roundtrip;
  ]
