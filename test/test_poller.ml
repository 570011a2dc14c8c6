(* Poller: readiness multiplexing over pipes — level-triggering,
   interest changes, removal, and the one-shot waits that replaced
   Unix.select timeouts. *)

open Test_helpers

let with_pipe f =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let with_poller f =
  let p = Poller.create () in
  Fun.protect ~finally:(fun () -> Poller.close p) (fun () -> f p)

let write_byte fd = ignore (Unix.write_substring fd "x" 0 1)

let drain fd =
  let b = Bytes.create 16 in
  ignore (Unix.read fd b 0 16)

let test_timeout_and_readiness () =
  with_pipe @@ fun r w ->
  with_poller @@ fun p ->
  Poller.add p r ~read:true ~write:false;
  check_int "nothing ready" 0 (Poller.wait p ~timeout_ms:0);
  write_byte w;
  check_int "one ready" 1 (Poller.wait p ~timeout_ms:1000);
  check_true "right fd" (Poller.ready_fd p 0 = r);
  check_true "readable" (Poller.ready_read p 0);
  check_false "not writable" (Poller.ready_write p 0);
  (* level-triggered: unread input re-reports *)
  check_int "still ready" 1 (Poller.wait p ~timeout_ms:0);
  drain r;
  check_int "drained" 0 (Poller.wait p ~timeout_ms:0)

let test_write_interest_and_modify () =
  with_pipe @@ fun r w ->
  with_poller @@ fun p ->
  Poller.add p w ~read:false ~write:true;
  check_int "empty pipe writable" 1 (Poller.wait p ~timeout_ms:1000);
  check_true "writable" (Poller.ready_write p 0);
  Poller.modify p w ~read:false ~write:false;
  check_int "no interest, no events" 0 (Poller.wait p ~timeout_ms:0);
  Poller.modify p w ~read:false ~write:true;
  check_int "interest restored" 1 (Poller.wait p ~timeout_ms:1000);
  ignore r

let test_remove () =
  with_pipe @@ fun r w ->
  with_poller @@ fun p ->
  Poller.add p r ~read:true ~write:false;
  write_byte w;
  check_int "ready" 1 (Poller.wait p ~timeout_ms:1000);
  Poller.remove p r;
  check_int "removed fd silent" 0 (Poller.wait p ~timeout_ms:0);
  (* remove of a never-added fd is tolerated *)
  Poller.remove p w;
  (* re-adding after remove works *)
  Poller.add p r ~read:true ~write:false;
  check_int "re-added" 1 (Poller.wait p ~timeout_ms:1000)

let test_multiple_fds () =
  let pipes = Array.init 5 (fun _ -> Unix.pipe ~cloexec:true ()) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun (r, w) ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          try Unix.close w with Unix.Unix_error _ -> ())
        pipes)
  @@ fun () ->
  with_poller @@ fun p ->
  Array.iter (fun (r, _) -> Poller.add p r ~read:true ~write:false) pipes;
  write_byte (snd pipes.(1));
  write_byte (snd pipes.(3));
  let n = Poller.wait p ~timeout_ms:1000 in
  check_int "two ready" 2 n;
  let got = List.sort compare (List.init n (fun i -> Poller.ready_fd p i)) in
  let want = List.sort compare [ fst pipes.(1); fst pipes.(3) ] in
  check_true "the right two" (got = want)

let test_hangup_reads_as_readable () =
  with_pipe @@ fun r w ->
  with_poller @@ fun p ->
  Poller.add p r ~read:true ~write:false;
  write_byte w;
  Unix.close w;
  (* peer gone with data still buffered: readable now, and still
     readable after the drain (EOF is also "read won't block") *)
  check_true "readable with buffered data" (Poller.wait p ~timeout_ms:1000 = 1);
  check_true "read bit" (Poller.ready_read p 0);
  drain r;
  check_true "eof still readable" (Poller.wait p ~timeout_ms:1000 = 1);
  let b = Bytes.create 4 in
  check_int "read sees eof" 0 (Unix.read r b 0 4)

let test_one_shot_waits () =
  with_pipe @@ fun r w ->
  check_false "quiet pipe times out" (Poller.wait_readable r 0.05);
  write_byte w;
  check_true "byte arrives" (Poller.wait_readable r 1.0);
  check_true "pipe writable" (Poller.wait_writable w 1.0)

let test_rejects_bad_args () =
  Alcotest.check_raises "max_events 0"
    (Invalid_argument "Poller.create: max_events < 1") (fun () ->
      ignore (Poller.create ~max_events:0 ()));
  with_poller @@ fun p ->
  Alcotest.check_raises "ready index range"
    (Invalid_argument "Poller: ready index out of range") (fun () ->
      ignore (Poller.ready_fd p 0))

let suite =
  [
    case "timeout, readiness, level-trigger" test_timeout_and_readiness;
    case "write interest and modify" test_write_interest_and_modify;
    case "remove deregisters" test_remove;
    case "multiplexes many fds" test_multiple_fds;
    case "hangup reports readable" test_hangup_reads_as_readable;
    case "one-shot waits replace select" test_one_shot_waits;
    case "rejects bad arguments" test_rejects_bad_args;
  ]
