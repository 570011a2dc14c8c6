open Test_helpers

(* --- pool combinators --------------------------------------------------- *)

let sum_below n = n * (n - 1) / 2

let test_parallel_find_init_per_domain () =
  (* each domain gets its own state: concurrent increments on it need no
     synchronisation, and with no witness the per-domain counts must add
     up to n *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let counters = Atomic.make [] in
      let r =
        Pool.parallel_find pool ~n:5_000
          ~init:(fun () ->
            let c = ref 0 in
            let rec add () =
              let cur = Atomic.get counters in
              if not (Atomic.compare_and_set counters cur (c :: cur)) then add ()
            in
            add ();
            c)
          (fun c _ ->
            incr c;
            None)
      in
      check_true "no witness" (r = None);
      let states = Atomic.get counters in
      check_true "at most one state per domain" (List.length states <= 4);
      check_int "per-domain counts cover the range" 5_000
        (List.fold_left (fun acc c -> acc + !c) 0 states))

let test_parallel_find_lowest_witness () =
  (* witnesses at every index >= 617: whatever the scheduling, the lowest
     one must win, exactly as in the sequential scan *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          for _rep = 1 to 5 do
            match
              Pool.parallel_find pool ~chunk:9 ~n:10_000
                ~init:(fun () -> ())
                (fun () i -> if i >= 617 then Some i else None)
            with
            | Some w -> check_int "lowest witness wins" 617 w
            | None -> Alcotest.fail "witness not found"
          done))
    [ 1; 2; 4 ]

let test_parallel_find_no_witness () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check_true "no witness -> None"
            (Pool.parallel_find pool ~n:1_000
               ~init:(fun () -> ())
               (fun () _ -> None)
            = None)))
    [ 1; 4 ]

let test_parallel_find_early_exit () =
  (* jobs=1 is the bit-for-bit sequential path: exact call count *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let calls = ref 0 in
      let r =
        Pool.parallel_find pool ~n:1_000
          ~init:(fun () -> ())
          (fun () i ->
            incr calls;
            if i = 10 then Some i else None)
      in
      check_int "sequential witness" 10 (Option.get r);
      check_int "sequential scan stopped at the witness" 11 !calls);
  (* parallel: witnesses everywhere from index 5 on — finishing the scan
     without early exit would take all 100k calls *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let calls = Atomic.make 0 in
      let n = 100_000 in
      let r =
        Pool.parallel_find pool ~n
          ~init:(fun () -> ())
          (fun () i ->
            Atomic.incr calls;
            if i >= 5 then Some i else None)
      in
      check_int "parallel lowest witness" 5 (Option.get r);
      check_true "parallel search early-exited" (Atomic.get calls < n))

let test_fold_chunks_ordered_reduce () =
  (* string concatenation is not commutative: chunk results must come back
     in ascending range order for every worker count *)
  let n = 100 and chunk = 16 in
  let expected = Buffer.create 64 in
  let lo = ref 0 in
  while !lo < n do
    Buffer.add_string expected (Printf.sprintf "[%d,%d)" !lo (min n (!lo + chunk)));
    lo := !lo + chunk
  done;
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let got =
            Pool.fold_chunks pool ~chunk ~n
              ~fold:(fun ~lo ~hi -> Printf.sprintf "[%d,%d)" lo hi)
              ~reduce:( ^ ) ~zero:""
          in
          Alcotest.(check string)
            (Printf.sprintf "chunk order jobs=%d" jobs)
            (Buffer.contents expected) got))
    [ 1; 2; 4 ]

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.check_raises "fold_chunks: exception crosses the join"
            (Failure "boom") (fun () ->
              ignore
                (Pool.fold_chunks pool ~chunk:7 ~n:100
                   ~fold:(fun ~lo ~hi -> if lo <= 37 && 37 < hi then failwith "boom")
                   ~reduce:(fun () () -> ())
                   ~zero:()));
          Alcotest.check_raises "parallel_find: exception crosses the join"
            (Failure "boom") (fun () ->
              ignore
                (Pool.parallel_find pool ~n:100
                   ~init:(fun () -> ())
                   (fun () i -> if i = 37 then failwith "boom" else None)));
          (* the region drains cleanly, so the pool stays usable *)
          let total =
            Pool.fold_chunks pool ~chunk:7 ~n:100
              ~fold:(fun ~lo ~hi -> sum_below hi - sum_below lo)
              ~reduce:( + ) ~zero:0
          in
          check_int "pool reusable after exception" (sum_below 100) total))
    [ 1; 4 ]

let test_empty_and_degenerate_ranges () =
  Pool.with_pool ~jobs:4 (fun pool ->
      check_true "find on empty"
        (Pool.parallel_find pool ~n:0
           ~init:(fun () -> Alcotest.fail "init on empty")
           (fun () i -> Some i)
        = None);
      check_int "fold on empty" 0
        (Pool.fold_chunks pool ~n:0
           ~fold:(fun ~lo:_ ~hi:_ -> Alcotest.fail "fold on empty")
           ~reduce:( + ) ~zero:0);
      check_true "find on a singleton"
        (Pool.parallel_find pool ~n:1 ~init:(fun () -> ()) (fun () i -> Some (i + 42))
        = Some 42);
      check_int "fold on a singleton" 42
        (Pool.fold_chunks pool ~n:1
           ~fold:(fun ~lo ~hi -> if (lo, hi) = (0, 1) then 42 else 0)
           ~reduce:( + ) ~zero:0))

(* --- parallel kernels equal the sequential ones -------------------------- *)

(* the pool fans out only above 62 vertices, where the per-agent scans
   run on Swap_eval: torus k = 6 (72 vertices) is a max equilibrium, so
   that scan is full, and Q7 (128) has a deletion witness *)
let kernel_graphs () =
  [
    ("torus-k3", Constructions.torus 3);
    ("hypercube-q4", Generators.hypercube 4);
    ("path-7", Generators.path 7);
    ("double-star-3-3", Generators.double_star 3 3);
    ("torus-k6", Constructions.torus 6);
    ("hypercube-q7", Generators.hypercube 7);
  ]

let test_equilibrium_determinism () =
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun (name, g) ->
          check_true
            (name ^ ": parallel sum verdict equals sequential")
            (Equilibrium.check_sum g = Equilibrium.check_sum ~pool g);
          check_true
            (name ^ ": parallel max verdict equals sequential")
            (Equilibrium.check_max g = Equilibrium.check_max ~pool g))
        (kernel_graphs ()))

let test_tree_census_determinism () =
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun version ->
          let seq = Census.tree_census version 6 in
          let par = Census.tree_census ~pool version 6 in
          check_true
            (Game.to_string version
            ^ ": parallel tree census n=6 equals sequential")
            (seq = par))
        [ Game.Sum; Game.Max ])

(* both graph censuses: the rank-range sweep re-deduplicates classes
   across chunks, the orderly walk merges class-disjoint sorted chunks *)
let test_graph_census_determinism () =
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun (census, version) ->
          let seq = census ?atlas:None ?pool:None version 5 in
          let par = census ?atlas:None ?pool:(Some pool) version 5 in
          check_int "connected count" seq.Census.connected par.Census.connected;
          check_int "labeled equilibria" seq.Census.equilibria_labeled
            par.Census.equilibria_labeled;
          check_int "max diameter" seq.Census.max_diameter par.Census.max_diameter;
          check_true "diameter histogram equal"
            (seq.Census.diameter_histogram = par.Census.diameter_histogram);
          check_int "iso class count"
            (List.length seq.Census.equilibria_iso)
            (List.length par.Census.equilibria_iso);
          (* chunk-ordered first-wins merge keeps even the representative
             choice identical *)
          List.iter2
            (fun a b -> check_true "same representative" (Graph.equal a b))
            seq.Census.equilibria_iso par.Census.equilibria_iso)
        [
          (Census.graph_census, Game.Sum);
          (Census.graph_census, Game.Max);
          (Census.orderly_census, Game.Sum);
          (Census.orderly_census, Game.Max);
        ])

let suite =
  [
    case "parallel_find per-domain init" test_parallel_find_init_per_domain;
    case "parallel_find lowest witness" test_parallel_find_lowest_witness;
    case "parallel_find without witness" test_parallel_find_no_witness;
    case "parallel_find early exit" test_parallel_find_early_exit;
    case "fold_chunks ordered reduction" test_fold_chunks_ordered_reduce;
    case "exception propagation" test_exception_propagation;
    case "empty and degenerate ranges" test_empty_and_degenerate_ranges;
    case "equilibrium: parallel = sequential" test_equilibrium_determinism;
    case "tree census: parallel = sequential" test_tree_census_determinism;
    case "graph census: parallel = sequential" test_graph_census_determinism;
  ]
