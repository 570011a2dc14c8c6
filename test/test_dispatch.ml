open Test_helpers

(* The dispatcher's contract is byte-identity with the sequential
   census, so every test renders results through the canonical wire
   JSON and compares strings — counts, histogram, representative
   order, everything. Failure injection goes through [Custom] workers
   (no sockets) except the stub-server tests, which misbehave at the
   protocol level to exercise the [Remote] path. *)

let check_str = Alcotest.(check string)

let render r = Jsonx.to_string (Rpc.census_result r)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let ok_worker name = Dispatch.Custom (name, fun s -> Ok (Census.run_shard s))

(* sleeps before answering: a straggler that still answers correctly *)
let slow_worker name delay =
  Dispatch.Custom
    ( name,
      fun s ->
        Thread.delay delay;
        Ok (Census.run_shard s) )

let tree_shard = Census.full_shard Census.Trees Game.Sum 5

let graph_shard = Census.full_shard Census.Graphs Game.Max 4

(* the max game's every class on 6 vertices, walked by the orderly
   generator; split in 8 parts below *)
let orderly_shard = Census.full_shard Census.Orderly Game.Max 6

let base =
  { Dispatch.default_config with Dispatch.parts = 6; backoff = 0.001 }

let run_ok cfg shard =
  match Dispatch.run cfg shard with
  | Ok (r, st) -> (r, st)
  | Error msg -> Alcotest.failf "Dispatch.run failed: %s" msg

let temp tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bncg-test-dispatch-%s-%d" tag (Unix.getpid ()))

let serve_config sock =
  {
    Serve.default_config with
    Serve.addresses = [ Serve.Unix_sock sock ];
    jobs = 2;
  }

(* two live servers as [Remote] workers *)
let with_fleet f =
  let start tag = Serve.start (serve_config (temp tag)) in
  let s1 = start "w1.sock" in
  Fun.protect ~finally:(fun () -> Serve.stop s1) @@ fun () ->
  let s2 = start "w2.sock" in
  Fun.protect ~finally:(fun () -> Serve.stop s2) @@ fun () ->
  f
    (List.map
       (fun s -> Dispatch.Remote (List.hd (Serve.bound_addresses s)))
       [ s1; s2 ])

(* --- happy paths ----------------------------------------------------------- *)

let test_healthy_fleet () =
  let expected = render (Census.run_shard tree_shard) in
  let cfg = { base with Dispatch.workers = [ ok_worker "a"; ok_worker "b" ] } in
  let r, st = run_ok cfg tree_shard in
  check_str "identical to sequential" expected (render r);
  check_int "shards" 6 st.Dispatch.shards;
  check_int "dispatched once each" st.Dispatch.shards st.Dispatch.dispatched;
  check_int "nothing retried" 0 st.Dispatch.retried;
  check_int "nothing recovered" 0 st.Dispatch.recovered;
  check_int "no journal" 0 st.Dispatch.journal_hits;
  check_true "nobody blacklisted" (st.Dispatch.blacklisted = [])

let test_default_parts () =
  (* parts = 0 means 4x the fleet size *)
  let cfg =
    { base with Dispatch.workers = [ ok_worker "a"; ok_worker "b" ]; parts = 0 }
  in
  let _, st = run_ok cfg graph_shard in
  check_int "4 * workers shards" 8 st.Dispatch.shards

let test_local_worker () =
  (* the domain-spawning path *)
  let expected = render (Census.run_shard graph_shard) in
  let cfg = { base with Dispatch.workers = [ Dispatch.Local "local-0" ] } in
  let r, _ = run_ok cfg graph_shard in
  check_str "identical to sequential" expected (render r)

let test_empty_range () =
  let empty = { tree_shard with Census.lo = 7; hi = 7 } in
  let cfg = { base with Dispatch.workers = [ ok_worker "a" ] } in
  let r, st = run_ok cfg empty in
  check_int "one empty shard" 1 st.Dispatch.shards;
  check_str "identical to sequential" (render (Census.run_shard empty)) (render r)

let test_slow_worker_merge_order () =
  (* completion order differs from rank order; the merge must not *)
  let expected = render (Census.run_shard tree_shard) in
  let cfg =
    { base with Dispatch.workers = [ slow_worker "slow" 0.002; ok_worker "fast" ] }
  in
  let r, st = run_ok cfg tree_shard in
  check_str "identical to sequential" expected (render r);
  check_int "nothing retried" 0 st.Dispatch.retried

(* --- failure injection ----------------------------------------------------- *)

let flaky_recovers ?(parts = 6) shard good =
  let expected = render (Census.run_shard shard) in
  let calls = ref 0 in
  let flaky s =
    incr calls;
    if !calls <= 2 then Error "injected fault" else Ok (Census.run_shard s)
  in
  let cfg =
    { base with Dispatch.workers = [ Dispatch.Custom ("flaky", flaky); good ]; parts }
  in
  let r, st = run_ok cfg shard in
  check_str "identical to sequential" expected (render r);
  check_true "failures retried" (st.Dispatch.retried >= 2);
  check_true "failed shards recovered" (st.Dispatch.recovered >= 1)

let test_flaky_worker_recovers () =
  (* the good worker is slowed so the instantly-failing flaky worker
     deterministically gets both injected faults in before the queue
     drains *)
  flaky_recovers tree_shard (slow_worker "good" 0.003);
  (* beside a live server, each of whose shards is a socket round trip *)
  with_fleet (fun fleet -> flaky_recovers ~parts:8 orderly_shard (List.hd fleet))

let test_raising_worker_is_caught () =
  (* a lone worker whose first call raises: the exception becomes a
     retry, the requeued shard completes on the same worker *)
  let expected = render (Census.run_shard graph_shard) in
  let calls = ref 0 in
  let raising s =
    incr calls;
    if !calls = 1 then failwith "boom" else Ok (Census.run_shard s)
  in
  let cfg = { base with Dispatch.workers = [ Dispatch.Custom ("raising", raising) ] } in
  let r, st = run_ok cfg graph_shard in
  check_str "identical to sequential" expected (render r);
  check_true "the raise was retried" (st.Dispatch.retried >= 1);
  check_true "its shard recovered" (st.Dispatch.recovered >= 1)

(* A reply for the wrong census (another kind, another n) must be a
   worker error that requeues the shard — not a result that is journaled
   and then blows up the final merge. *)
let test_mismatched_reply_requeues () =
  let expected = render (Census.run_shard graph_shard) in
  let wrong_n = Census.full_shard Census.Graphs Game.Max 3 in
  let calls = ref 0 in
  let confused s =
    incr calls;
    match !calls with
    | 1 -> Ok (Census.run_shard tree_shard)
    | 2 -> Ok (Census.run_shard wrong_n)
    | _ -> Ok (Census.run_shard s)
  in
  let cfg = { base with Dispatch.workers = [ Dispatch.Custom ("confused", confused) ] } in
  let r, st = run_ok cfg graph_shard in
  check_str "identical to sequential" expected (render r);
  check_int "both wrong replies retried" 2 st.Dispatch.retried;
  check_true "their shards recovered" (st.Dispatch.recovered >= 1)

let test_attempts_exhausted () =
  let cfg =
    {
      base with
      Dispatch.workers = [ Dispatch.Custom ("broken", fun _ -> Error "no") ];
      max_attempts = 2;
      blacklist_after = 100;
    }
  in
  match Dispatch.run cfg graph_shard with
  | Ok _ -> Alcotest.fail "a permanently failing fleet must not succeed"
  | Error msg -> check_true "mentions the budget" (contains msg "failed 2 times")

let test_all_workers_blacklisted () =
  let bad name = Dispatch.Custom (name, fun _ -> Error "no") in
  let cfg =
    {
      base with
      Dispatch.workers = [ bad "bad1"; bad "bad2" ];
      max_attempts = 100;
      blacklist_after = 1;
    }
  in
  match Dispatch.run cfg graph_shard with
  | Ok _ -> Alcotest.fail "an all-bad fleet must not succeed"
  | Error msg ->
    check_true "mentions the blacklist" (contains msg "all 2 workers blacklisted")

let test_bad_worker_blacklisted_good_completes () =
  let expected = render (Census.run_shard graph_shard) in
  (* the good worker is slowed so the instant-failing bad worker
     deterministically burns through its streak budget first *)
  let cfg =
    {
      base with
      Dispatch.workers =
        [ Dispatch.Custom ("bad", fun _ -> Error "no"); slow_worker "good" 0.005 ];
      max_attempts = 100;
      blacklist_after = 2;
    }
  in
  let r, st = run_ok cfg graph_shard in
  check_str "identical to sequential" expected (render r);
  Alcotest.(check (list string)) "bad retired" [ "bad" ] st.Dispatch.blacklisted;
  check_true "its failures recovered" (st.Dispatch.recovered >= 1)

(* --- config and shard validation ------------------------------------------- *)

let test_validation () =
  let is_error = function Error _ -> true | Ok _ -> false in
  check_true "no workers" (is_error (Dispatch.run base tree_shard));
  let one = { base with Dispatch.workers = [ ok_worker "a" ] } in
  check_true "max_attempts < 1"
    (is_error (Dispatch.run { one with Dispatch.max_attempts = 0 } tree_shard));
  check_true "blacklist_after < 1"
    (is_error (Dispatch.run { one with Dispatch.blacklist_after = 0 } tree_shard));
  check_true "timeout nan"
    (is_error (Dispatch.run { one with Dispatch.timeout = Float.nan } tree_shard));
  check_true "timeout 0"
    (is_error (Dispatch.run { one with Dispatch.timeout = 0.0 } tree_shard));
  check_true "invalid shard bounds"
    (is_error (Dispatch.run one { tree_shard with Census.lo = 50; hi = 10 }))

(* --- journal --------------------------------------------------------------- *)

let journal_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* a lone worker completes [survivors] shards, then dies for good; the
   run fails and its journal keeps those shards, which a resume on
   [fleet] replays *)
let crash_resume ~parts ~survivors shard fleet =
  let journal = temp "journal.log" in
  (try Sys.remove journal with Sys_error _ -> ());
  Fun.protect ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  let expected = render (Census.run_shard shard) in
  let calls = ref 0 in
  let dying s =
    incr calls;
    if !calls <= survivors then Ok (Census.run_shard s) else Error "worker died"
  in
  let crash_cfg =
    {
      base with
      Dispatch.workers = [ Dispatch.Custom ("dying", dying) ];
      parts;
      max_attempts = 2;
      journal = Some journal;
    }
  in
  (match Dispatch.run crash_cfg shard with
  | Ok _ -> Alcotest.fail "the dying fleet must fail the run"
  | Error _ -> ());
  check_int "journal = header + survivors" (survivors + 1)
    (List.length (journal_lines journal));
  (* resume on a healthy fleet: only the missing shards are recomputed *)
  let cfg = { base with Dispatch.workers = fleet; parts; journal = Some journal } in
  let r, st = run_ok cfg shard in
  check_str "resumed result identical" expected (render r);
  check_int "journaled shards replayed" survivors st.Dispatch.journal_hits;
  check_int "only the rest dispatched" (st.Dispatch.shards - survivors)
    st.Dispatch.dispatched;
  (* a second resume over the complete journal computes nothing *)
  let r2, st2 = run_ok cfg shard in
  check_str "second resume identical" expected (render r2);
  check_int "zero dispatched" 0 st2.Dispatch.dispatched;
  check_int "all shards from journal" st2.Dispatch.shards st2.Dispatch.journal_hits;
  (* an unparseable trailing line (torn write) is skipped, not fatal *)
  let oc = open_out_gen [ Open_append ] 0o644 journal in
  output_string oc "{\"lo\": 12, \"hi\"";
  close_out oc;
  let r3, st3 = run_ok cfg shard in
  check_str "torn tail ignored" expected (render r3);
  check_int "still all from journal" st3.Dispatch.shards st3.Dispatch.journal_hits;
  (* a journal from different shard boundaries must be refused *)
  match Dispatch.run { cfg with Dispatch.parts = 3 } shard with
  | Ok _ -> Alcotest.fail "mismatched journal header must be refused"
  | Error msg ->
    check_true "mentions the mismatch" (contains msg "different run")

let test_journal_crash_resume () =
  crash_resume ~parts:6 ~survivors:2 graph_shard [ ok_worker "a" ];
  with_fleet (crash_resume ~parts:8 ~survivors:3 orderly_shard)

(* --- remote workers -------------------------------------------------------- *)

let test_client_e2e () =
  let sock = temp "client.sock" in
  let srv = Serve.start (serve_config sock) in
  Fun.protect ~finally:(fun () -> Serve.stop srv) @@ fun () ->
  check_true "connect to a dead address fails"
    (match Client.connect (Serve.Unix_sock (temp "nowhere.sock")) with
    | Error _ -> true
    | Ok c ->
      Client.close c;
      false);
  match Client.connect (Serve.Unix_sock sock) with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok c ->
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    check_true "ping" (Client.ping c = Ok ());
    (match Client.protocol_version c with
    | Ok v -> check_int "protocol version" Rpc.protocol_version v
    | Error msg -> Alcotest.failf "protocol_version: %s" msg);
    let sub = { tree_shard with Census.lo = 10; hi = 60 } in
    (match Client.census_shard c sub with
    | Ok r ->
      check_str "remote shard decodes identical" (render (Census.run_shard sub))
        (render r)
    | Error msg -> Alcotest.failf "census_shard: %s" msg)

let test_remote_dispatch () =
  with_fleet @@ fun fleet ->
  List.iter
    (fun (shard, parts) ->
      let expected = render (Census.run_shard shard) in
      let r, st = run_ok { base with Dispatch.workers = fleet; parts } shard in
      check_str "identical to sequential" expected (render r);
      check_int "every shard dispatched once" st.Dispatch.shards st.Dispatch.dispatched;
      check_int "nothing retried" 0 st.Dispatch.retried)
    [ (tree_shard, 6); (orderly_shard, 8) ]

(* A stub endpoint misbehaving at the protocol level: accepts real
   connections, then either answers garbage or goes silent until the
   client hangs up — malformed replies and straggler timeouts on the
   [Remote] path without a real serve process.

   [f] receives the stub's address and a [wait_request] function that
   blocks until the stub has read at least one request line. The tests
   below pair the stub with a healthy [Custom] worker that calls
   [wait_request] before computing: without the handshake the healthy
   worker can drain the whole queue before the stub's first dispatch is
   even in flight, and the [retried >= 1] assertions race (the straggler
   test failed about one run in six on wall-clock luck alone). *)
let with_stub_server tag behavior f =
  let path = temp (tag ^ ".sock") in
  (try Sys.remove path with Sys_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  let stop = Atomic.make false in
  let seen = ref 0 in
  let seen_mutex = Mutex.create () in
  let seen_cond = Condition.create () in
  let note_request () =
    Mutex.lock seen_mutex;
    incr seen;
    Condition.broadcast seen_cond;
    Mutex.unlock seen_mutex
  in
  let wait_request () =
    Mutex.lock seen_mutex;
    while !seen = 0 do
      Condition.wait seen_cond seen_mutex
    done;
    Mutex.unlock seen_mutex
  in
  let server =
    Thread.create
      (fun () ->
        let rec loop () =
          match Unix.accept listener with
          | exception _ -> ()
          | fd, _ ->
            (try
               let ic = Unix.in_channel_of_descr fd in
               match behavior with
               | `Garbage ->
                 ignore (input_line ic);
                 note_request ();
                 let oc = Unix.out_channel_of_descr fd in
                 output_string oc "these are not the bytes you are looking for\n";
                 flush oc
               | `Stall ->
                 (* read the request, answer nothing; the second read
                    blocks until the timed-out client closes the stream *)
                 ignore (input_line ic);
                 note_request ();
                 ignore (input_line ic)
             with _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ());
            if Atomic.get stop then () else loop ()
        in
        loop ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (* wake the blocked accept with a throwaway connection *)
      (try
         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try Unix.connect fd (Unix.ADDR_UNIX path)
          with Unix.Unix_error _ -> ());
         Unix.close fd
       with Unix.Unix_error _ -> ());
      Thread.join server;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f (Serve.Unix_sock path) wait_request)

(* a healthy worker that lets the stub receive a dispatch before it
   computes anything, so the misbehaving remote deterministically has a
   shard in flight to retry *)
let polite_worker name wait_request =
  Dispatch.Custom
    ( name,
      fun s ->
        wait_request ();
        Ok (Census.run_shard s) )

let test_malformed_replies_requeue () =
  with_stub_server "garbage" `Garbage @@ fun addr wait_request ->
  let expected = render (Census.run_shard graph_shard) in
  let cfg =
    {
      base with
      Dispatch.workers = [ Dispatch.Remote addr; polite_worker "good" wait_request ];
      timeout = 5.0;
    }
  in
  let r, st = run_ok cfg graph_shard in
  check_str "identical to sequential" expected (render r);
  check_true "malformed replies retried" (st.Dispatch.retried >= 1);
  check_true "their shards recovered" (st.Dispatch.recovered >= 1)

let test_straggler_reclaimed_by_timeout () =
  with_stub_server "stall" `Stall @@ fun addr wait_request ->
  let expected = render (Census.run_shard graph_shard) in
  let cfg =
    {
      base with
      Dispatch.workers = [ Dispatch.Remote addr; polite_worker "good" wait_request ];
      timeout = 0.2;
    }
  in
  let r, st = run_ok cfg graph_shard in
  check_str "identical to sequential" expected (render r);
  check_true "timed-out shards retried" (st.Dispatch.retried >= 1);
  check_true "timed-out shards recovered" (st.Dispatch.recovered >= 1)

let suite =
  [
    case "healthy fleet equals sequential" test_healthy_fleet;
    case "parts default to 4x workers" test_default_parts;
    case "local worker (domain path)" test_local_worker;
    case "empty rank range" test_empty_range;
    case "slow worker: merge order is rank order" test_slow_worker_merge_order;
    case "flaky worker retries and recovers" test_flaky_worker_recovers;
    case "raising worker is caught and retried" test_raising_worker_is_caught;
    case "mismatched reply kind or n requeues" test_mismatched_reply_requeues;
    case "per-shard attempt budget is fatal" test_attempts_exhausted;
    case "all workers blacklisted is fatal" test_all_workers_blacklisted;
    case "bad worker blacklisted, good completes" test_bad_worker_blacklisted_good_completes;
    case "config and shard validation" test_validation;
    case "journal: crash, resume, torn tail, mismatch" test_journal_crash_resume;
    case "client e2e against a live server" test_client_e2e;
    case "remote dispatch against a live server" test_remote_dispatch;
    case "malformed remote replies requeue" test_malformed_replies_requeue;
    case "straggler reclaimed by timeout" test_straggler_reclaimed_by_timeout;
  ]
