(* Shared checkers and QCheck generators. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_true msg b = check_bool msg true b

let check_false msg b = check_bool msg false b

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* [perm.(v)] is the new name of [v] *)
let relabel g perm =
  let h = Graph.create (Graph.n g) in
  Graph.iter_edges (fun u v -> Graph.add_edge h perm.(u) perm.(v)) g;
  h

(* Graphs are generated from (size, seed) pairs so QCheck sees a simple
   integer space while the graphs stay deterministic per seed. *)

let gen_sized_seed ~min_n ~max_n =
  QCheck2.Gen.(pair (int_range min_n max_n) (int_range 0 1_000_000))

let gen_tree ~min_n ~max_n =
  QCheck2.Gen.map
    (fun (n, seed) -> Random_graphs.tree (Prng.create seed) n)
    (gen_sized_seed ~min_n ~max_n)

let gen_connected ~min_n ~max_n =
  QCheck2.Gen.map
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let extra = if n <= 2 then 0 else Prng.int rng n in
      let max_m = n * (n - 1) / 2 in
      Random_graphs.connected_gnm rng n (min max_m (n - 1 + extra)))
    (gen_sized_seed ~min_n ~max_n)

let gen_any_graph ~min_n ~max_n =
  QCheck2.Gen.map
    (fun (n, seed) ->
      let rng = Prng.create seed in
      Random_graphs.gnp rng n (Prng.float rng 1.0))
    (gen_sized_seed ~min_n ~max_n)

(* Reference BFS: textbook queue-and-list implementation, used to validate
   the optimized workspace BFS. *)
let reference_distances g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w q
        end)
      (Array.to_list (Graph.neighbors g v))
  done;
  dist
