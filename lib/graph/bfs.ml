let unreachable = max_int / 4

(* Counted once per [run], after the loop, from the queue cursors — the
   inner neighbor loop stays untouched, so the instrumentation costs three
   flat flag checks per BFS even when telemetry is on. *)
let m_runs = Telemetry.counter "bfs.runs"

let m_visits = Telemetry.counter "bfs.visits"

let m_pushes = Telemetry.counter "bfs.frontier_pushes"

type workspace = {
  capacity : int;
  queue : int array;
  dist : int array;  (* stamped: valid iff stamp.(v) = generation *)
  stamp : int array;
  mutable generation : int;
  mutable last_reached : int;
  mutable last_sum : int;
  mutable last_ecc : int;
  mutable last_n : int;
}

let create_workspace n =
  if n < 0 then invalid_arg "Bfs.create_workspace";
  {
    capacity = n;
    queue = Array.make (max n 1) 0;
    dist = Array.make (max n 1) 0;
    stamp = Array.make (max n 1) (-1);
    generation = 0;
    last_reached = 0;
    last_sum = 0;
    last_ecc = 0;
    last_n = 0;
  }

let run ws g src =
  let n = Graph.n g in
  if n > ws.capacity then invalid_arg "Bfs.run: workspace too small";
  if src < 0 || src >= n then invalid_arg "Bfs.run: source out of range";
  ws.generation <- ws.generation + 1;
  let gen = ws.generation in
  ws.dist.(src) <- 0;
  ws.stamp.(src) <- gen;
  ws.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let sum = ref 0 and ecc = ref 0 in
  while !head < !tail do
    let v = ws.queue.(!head) in
    incr head;
    let dv = ws.dist.(v) in
    let dnext = dv + 1 in
    Graph.iter_neighbors
      (fun w ->
        if ws.stamp.(w) <> gen then begin
          ws.stamp.(w) <- gen;
          ws.dist.(w) <- dnext;
          sum := !sum + dnext;
          if dnext > !ecc then ecc := dnext;
          ws.queue.(!tail) <- w;
          incr tail
        end)
      g v
  done;
  ws.last_reached <- !tail;
  ws.last_sum <- !sum;
  ws.last_ecc <- !ecc;
  ws.last_n <- n;
  Telemetry.incr m_runs;
  Telemetry.add m_visits !head;
  Telemetry.add m_pushes !tail

let dist ws v =
  if ws.stamp.(v) = ws.generation then ws.dist.(v) else unreachable

let reached ws = ws.last_reached

let ecc ws = ws.last_ecc

let distances g src =
  let ws = create_workspace (Graph.n g) in
  run ws g src;
  Array.init (Graph.n g) (fun v -> dist ws v)

let distances_into ws g src out =
  run ws g src;
  for v = 0 to Graph.n g - 1 do
    out.(v) <- dist ws v
  done

let all_pairs g =
  let n = Graph.n g in
  let ws = create_workspace n in
  Array.init n (fun src ->
      let row = Array.make n 0 in
      distances_into ws g src row;
      row)

type reachability = { sum : int; ecc : int; reached : int }

let reach ws g src =
  run ws g src;
  { sum = ws.last_sum; ecc = ws.last_ecc; reached = ws.last_reached }

let connected_from ws g src =
  run ws g src;
  ws.last_reached = Graph.n g
