open Test_helpers

(* Telemetry is process-global; every test flips the switch inside
   [guarded] so a failure cannot leave it enabled for later suites. *)
let guarded f =
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    f

let test_counter_semantics () =
  guarded (fun () ->
      let c = Telemetry.counter "test.counter" in
      Telemetry.reset ();
      check_int "starts at zero" 0 (Telemetry.counter_value c);
      Telemetry.set_enabled true;
      Telemetry.incr c;
      Telemetry.incr c;
      Telemetry.add c 40;
      check_int "incr and add accumulate" 42 (Telemetry.counter_value c);
      (* creation is idempotent: same name, same cell *)
      let c' = Telemetry.counter "test.counter" in
      Telemetry.incr c';
      check_int "same handle per name" 43 (Telemetry.counter_value c))

let test_gauge_semantics () =
  guarded (fun () ->
      let g = Telemetry.gauge "test.gauge" in
      Telemetry.reset ();
      Telemetry.set_enabled true;
      Telemetry.set_gauge g 7;
      Telemetry.set_gauge g 3;
      check_int "last write wins" 3 (Telemetry.gauge_value g))

let test_kind_collision_rejected () =
  guarded (fun () ->
      let _ = Telemetry.counter "test.collide" in
      match Telemetry.gauge "test.collide" with
      | _ -> Alcotest.fail "cross-kind name reuse must raise"
      | exception Invalid_argument _ -> ())

let test_histogram_semantics () =
  guarded (fun () ->
      let h = Telemetry.histogram "test.hist" in
      Telemetry.reset ();
      Telemetry.set_enabled true;
      List.iter (Telemetry.observe h) [ 0; 1; 2; 3; 5; 1024; max_int ];
      check_int "count" 7 (Telemetry.histogram_count h);
      check_int "sum" (0 + 1 + 2 + 3 + 5 + 1024 + max_int) (Telemetry.histogram_sum h);
      check_int "bucket 0 catches v <= 1" 2 (Telemetry.histogram_bucket h 0);
      check_int "bucket 1 is [2,4)" 2 (Telemetry.histogram_bucket h 1);
      check_int "bucket 2 is [4,8)" 1 (Telemetry.histogram_bucket h 2);
      check_int "bucket 10 is [1024,2048)" 1 (Telemetry.histogram_bucket h 10);
      check_int "max_int clamps into the last bucket" 1
        (Telemetry.histogram_bucket h (Telemetry.histogram_buckets - 1)))

let test_span_accumulation_and_nesting () =
  guarded (fun () ->
      let outer = Telemetry.span "test.span.outer" in
      let inner = Telemetry.span "test.span.inner" in
      Telemetry.reset ();
      Telemetry.set_enabled true;
      let spin () = ignore (Sys.opaque_identity (Hashtbl.hash "spin")) in
      for _ = 1 to 3 do
        let t0 = Telemetry.start () in
        let t1 = Telemetry.start () in
        spin ();
        Telemetry.stop inner t1;
        Telemetry.stop outer t0
      done;
      check_int "outer calls" 3 (Telemetry.span_count outer);
      check_int "inner calls" 3 (Telemetry.span_count inner);
      check_true "spans accumulate time" (Telemetry.span_ns outer > 0);
      (* the monotonic clock makes the enclosing span at least as long *)
      check_true "nesting: outer >= inner"
        (Telemetry.span_ns outer >= Telemetry.span_ns inner);
      let r = Telemetry.with_span outer (fun () -> 41 + 1) in
      check_int "with_span returns the result" 42 r;
      check_int "with_span counts a call" 4 (Telemetry.span_count outer))

let test_disabled_mode_stays_zero () =
  guarded (fun () ->
      let c = Telemetry.counter "test.off.counter" in
      let g = Telemetry.gauge "test.off.gauge" in
      let sp = Telemetry.span "test.off.span" in
      let h = Telemetry.histogram "test.off.hist" in
      Telemetry.reset ();
      check_false "disabled by default in tests" (Telemetry.enabled ());
      for _ = 1 to 100 do
        Telemetry.incr c;
        Telemetry.add c 5;
        Telemetry.set_gauge g 9;
        let t0 = Telemetry.start () in
        Telemetry.stop sp t0;
        ignore (Telemetry.with_span sp (fun () -> ()));
        Telemetry.observe h 17
      done;
      check_int "counter untouched" 0 (Telemetry.counter_value c);
      check_int "gauge untouched" 0 (Telemetry.gauge_value g);
      check_int "span ns untouched" 0 (Telemetry.span_ns sp);
      check_int "span calls untouched" 0 (Telemetry.span_count sp);
      check_int "histogram untouched" 0 (Telemetry.histogram_count h);
      (* a timestamp taken while disabled must not record after enabling *)
      let t0 = Telemetry.start () in
      Telemetry.set_enabled true;
      Telemetry.stop sp t0;
      check_int "disabled-start span discarded" 0 (Telemetry.span_count sp))

let test_reset_between_runs () =
  guarded (fun () ->
      let c = Telemetry.counter "test.reset.counter" in
      let sp = Telemetry.span "test.reset.span" in
      Telemetry.set_enabled true;
      Telemetry.add c 10;
      let t0 = Telemetry.start () in
      Telemetry.stop sp t0;
      check_true "populated before reset" (Telemetry.counter_value c > 0);
      Telemetry.reset ();
      check_int "counter zeroed" 0 (Telemetry.counter_value c);
      check_int "span ns zeroed" 0 (Telemetry.span_ns sp);
      check_int "span calls zeroed" 0 (Telemetry.span_count sp);
      Telemetry.incr c;
      check_int "registration survives reset" 1 (Telemetry.counter_value c))

let test_concurrent_increments_lose_nothing () =
  guarded (fun () ->
      let c = Telemetry.counter "test.concurrent.counter" in
      let h = Telemetry.histogram "test.concurrent.hist" in
      Telemetry.reset ();
      Telemetry.set_enabled true;
      let n = 50_000 in
      Pool.with_pool ~jobs:4 (fun pool ->
          Pool.fold_chunks ~chunk:64 pool ~n
            ~fold:(fun ~lo ~hi ->
              for i = lo to hi - 1 do
                Telemetry.incr c;
                Telemetry.observe h (i land 7)
              done)
            ~reduce:(fun () () -> ())
            ~zero:());
      check_int "no lost counter increments" n (Telemetry.counter_value c);
      check_int "no lost histogram observations" n (Telemetry.histogram_count h))

let test_rows_and_json () =
  guarded (fun () ->
      let c = Telemetry.counter "test.rows.counter" in
      let sp = Telemetry.span "test.rows.span" in
      Telemetry.reset ();
      Telemetry.set_enabled true;
      Telemetry.add c 5;
      Telemetry.stop sp 1;
      let rows = Telemetry.rows () in
      let find name = List.find_opt (fun r -> r.Telemetry.name = name) rows in
      (match find "test.rows.counter" with
      | Some r ->
        check_int "counter row value" 5 r.Telemetry.value;
        Alcotest.(check string) "counter row kind" "counter" r.Telemetry.kind
      | None -> Alcotest.fail "counter row missing");
      check_true "span emits .ns and .calls rows"
        (find "test.rows.span.ns" <> None && find "test.rows.span.calls" <> None);
      let sorted = List.map (fun r -> r.Telemetry.name) rows in
      check_true "rows sorted by name" (List.sort compare sorted = sorted);
      let path = Filename.temp_file "bncg_stats" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Telemetry.write_json path;
          let ic = open_in path in
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          check_true "json is a non-empty array"
            (String.length s > 2 && s.[0] = '[');
          check_true "json mentions the counter"
            (let re = "test.rows.counter" in
             let rec contains i =
               i + String.length re <= String.length s
               && (String.sub s i (String.length re) = re || contains (i + 1))
             in
             contains 0)))

let suite =
  [
    case "counter semantics" test_counter_semantics;
    case "gauge semantics" test_gauge_semantics;
    case "kind collision rejected" test_kind_collision_rejected;
    case "histogram semantics" test_histogram_semantics;
    case "span accumulation and nesting" test_span_accumulation_and_nesting;
    case "disabled mode leaves metrics at zero" test_disabled_mode_stays_zero;
    case "reset between runs" test_reset_between_runs;
    case "concurrent increments lose no counts" test_concurrent_increments_lose_nothing;
    case "rows and json output" test_rows_and_json;
  ]
