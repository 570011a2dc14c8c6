(* Acceptance scenario for the distributed census orchestrator: a mixed
   fleet over real sockets, injected failures, and a crash/resume cycle
   against one journal — every phase gated on the merged census being
   byte-identical (as rendered result JSON) to the sequential one.

     dune exec bench/distcensus.exe                 -- max census, n = 6
     dune exec bench/distcensus.exe -- --n 5 --game alpha:1

   The game picks the census kind through Census.graph_kind, as it does
   for bncg census: orderly shards for sum/max, rank-range for alpha.

   Phases:
     healthy   two bncg-serve workers on temp Unix sockets; all shards
               dispatched, result identical to Census.run_shard
     flaky     one healthy remote plus a worker that fails its first
               calls and is blacklisted; shards recover on the healthy
               worker, result still identical
     crash     a lone worker that dies partway with a journal attached:
               the run fails, the journal keeps its completed shards
     resume    healthy fleet over the same journal: only the missing
               shards are recomputed, then a second resume recomputes
               nothing at all

   Exit status 1 on any mismatch — the acceptance gate for the
   dispatch layer. *)

let n = ref 6

let game = ref Game.Max

let () =
  let rec scan = function
    | [] -> ()
    | "--n" :: v :: rest ->
      n := int_of_string v;
      scan rest
    | "--game" :: v :: rest -> (
      match Game.of_string v with
      | Ok g ->
        game := g;
        scan rest
      | Error msg ->
        Printf.eprintf "distcensus: --game: %s\n" msg;
        exit 2)
    | arg :: _ ->
      Printf.eprintf
        "distcensus: unknown argument %s (expected --n N, --game GAME)\n" arg;
      exit 2
  in
  scan (List.tl (Array.to_list Sys.argv))

let failures = ref 0

let check name ok =
  if ok then Printf.printf "  ok    %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAIL  %s\n%!" name
  end

(* byte-identity via the canonical wire rendering: counts, histogram,
   representative order, everything *)
let render r = Jsonx.to_string (Rpc.census_result r)

let temp path =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bncg-distcensus-%s-%d" path (Unix.getpid ()))

let start_server tag =
  let sock = temp (tag ^ ".sock") in
  let srv =
    Serve.start
      {
        Serve.default_config with
        Serve.addresses = [ Serve.Unix_sock sock ];
        jobs = 1;
      }
  in
  (srv, Serve.Unix_sock sock)

let () =
  let shard = Census.full_shard (Census.graph_kind !game) !game !n in
  let expected = render (Census.run_shard shard) in
  let parts = 8 in
  let srv1, addr1 = start_server "w1" in
  let srv2, addr2 = start_server "w2" in
  let base =
    {
      Dispatch.default_config with
      Dispatch.parts;
      backoff = 0.01;
      timeout = 120.0;
    }
  in
  let phase name f =
    Printf.printf "%s:\n%!" name;
    f ()
  in

  phase "healthy" (fun () ->
      let cfg =
        { base with Dispatch.workers = [ Dispatch.Remote addr1; Dispatch.Remote addr2 ] }
      in
      match Dispatch.run cfg shard with
      | Error msg -> check ("run: " ^ msg) false
      | Ok (r, st) ->
        check "result identical to sequential" (String.equal expected (render r));
        check "all shards dispatched" (st.Dispatch.dispatched = st.Dispatch.shards);
        check "nothing retried" (st.Dispatch.retried = 0));

  phase "flaky" (fun () ->
      (* fails its first two calls, then works: exercises retry,
         backoff and recovery without ever being blacklisted *)
      let calls = ref 0 in
      let flaky s =
        incr calls;
        if !calls <= 2 then Error "injected fault"
        else Ok (Census.run_shard s)
      in
      let cfg =
        {
          base with
          Dispatch.workers =
            [ Dispatch.Remote addr1; Dispatch.Custom ("flaky", flaky) ];
        }
      in
      match Dispatch.run cfg shard with
      | Error msg -> check ("run: " ^ msg) false
      | Ok (r, st) ->
        check "result identical to sequential" (String.equal expected (render r));
        check "failures were retried" (st.Dispatch.retried >= 2);
        check "failed shards recovered" (st.Dispatch.recovered >= 1));

  let journal = temp "journal.log" in
  (try Sys.remove journal with Sys_error _ -> ());

  phase "crash" (fun () ->
      (* a lone worker that completes three shards and then dies for
         good; with one worker and a 2-attempt budget the run must fail,
         leaving the journal holding exactly the completed shards *)
      let calls = ref 0 in
      let dying s =
        incr calls;
        if !calls <= 3 then Ok (Census.run_shard s) else Error "worker died"
      in
      let cfg =
        {
          base with
          Dispatch.workers = [ Dispatch.Custom ("dying", dying) ];
          max_attempts = 2;
          journal = Some journal;
        }
      in
      match Dispatch.run cfg shard with
      | Ok _ -> check "dying fleet must fail the run" false
      | Error _ ->
        let lines = ref 0 in
        let ic = open_in journal in
        (try
           while true do
             ignore (input_line ic);
             incr lines
           done
         with End_of_file -> close_in ic);
        check "journal holds header + 3 completed shards" (!lines = 4));

  phase "resume" (fun () ->
      let cfg =
        {
          base with
          Dispatch.workers = [ Dispatch.Remote addr1; Dispatch.Remote addr2 ];
          journal = Some journal;
        }
      in
      match Dispatch.run cfg shard with
      | Error msg -> check ("run: " ^ msg) false
      | Ok (r, st) ->
        check "result identical to sequential" (String.equal expected (render r));
        check "journaled shards replayed" (st.Dispatch.journal_hits = 3);
        check "only missing shards recomputed"
          (st.Dispatch.dispatched = st.Dispatch.shards - 3);
        (* a second resume over the now-complete journal computes nothing *)
        match Dispatch.run cfg shard with
        | Error msg -> check ("second resume: " ^ msg) false
        | Ok (r2, st2) ->
          check "second resume identical" (String.equal expected (render r2));
          check "second resume recomputes zero shards"
            (st2.Dispatch.dispatched = 0 && st2.Dispatch.journal_hits = st2.Dispatch.shards));

  Serve.stop srv1;
  Serve.stop srv2;
  (try Sys.remove journal with Sys_error _ -> ());

  if !failures > 0 then begin
    Printf.eprintf "distcensus: FAILED — %d checks failed\n" !failures;
    exit 1
  end;
  print_endline "distcensus: OK"
