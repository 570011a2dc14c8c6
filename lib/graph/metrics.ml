let fold_vertices_bfs g f init =
  (* Applies [f acc reach] per vertex; short-circuits to None on
     disconnection. *)
  let n = Graph.n g in
  if n = 0 then Some init
  else begin
    let ws = Bfs.create_workspace n in
    let rec loop v acc =
      if v >= n then Some acc
      else begin
        let r = Bfs.reach ws g v in
        if r.Bfs.reached < n then None else loop (v + 1) (f acc r)
      end
    in
    loop 0 init
  end

let eccentricities g =
  let n = Graph.n g in
  let out = Array.make n 0 in
  let i = ref 0 in
  fold_vertices_bfs g
    (fun () r ->
      out.(!i) <- r.Bfs.ecc;
      incr i)
    ()
  |> Option.map (fun () -> out)

let diameter g = fold_vertices_bfs g (fun acc r -> max acc r.Bfs.ecc) 0

let radius g =
  fold_vertices_bfs g (fun acc r -> min acc r.Bfs.ecc) max_int
  |> Option.map (fun r -> if Graph.n g <= 1 then 0 else r)

let wiener_index g =
  fold_vertices_bfs g (fun acc r -> acc + r.Bfs.sum) 0
  |> Option.map (fun twice -> twice / 2)

let average_distance g =
  let n = Graph.n g in
  if n <= 1 then None
  else
    wiener_index g
    |> Option.map (fun w -> float_of_int w /. (float_of_int (n * (n - 1)) /. 2.0))

let girth g =
  (* BFS from every vertex; a non-tree edge between BFS levels witnesses a
     cycle through the root of length dist u + dist v + 1 (odd case, exact)
     or dist u + dist v + 2 (even case, upper bound).  Taking the minimum
     over all roots is exact: a shortest cycle is recovered from any of its
     vertices. *)
  let n = Graph.n g in
  let best = ref max_int in
  let dist = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let queue = Array.make n 0 in
  for src = 0 to n - 1 do
    Array.fill dist 0 n (-1);
    dist.(src) <- 0;
    parent.(src) <- -1;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      Graph.iter_neighbors
        (fun w ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(v) + 1;
            parent.(w) <- v;
            queue.(!tail) <- w;
            incr tail
          end
          else if parent.(v) <> w && v < w then begin
            let len = dist.(v) + dist.(w) + 1 in
            if len < !best then best := len
          end)
        g v
    done
  done;
  if !best = max_int then None else Some !best

let distance_histogram g v =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  Bfs.run ws g v;
  let ecc = Bfs.ecc ws in
  let hist = Array.make (ecc + 1) 0 in
  for w = 0 to n - 1 do
    let d = Bfs.dist ws w in
    if d <> Bfs.unreachable then hist.(d) <- hist.(d) + 1
  done;
  hist

let ball_sizes g v =
  let hist = distance_histogram g v in
  let acc = ref 0 in
  Array.map
    (fun c ->
      acc := !acc + c;
      !acc)
    hist

let local_diameter g v =
  let ws = Bfs.create_workspace (Graph.n g) in
  let r = Bfs.reach ws g v in
  if r.Bfs.reached < Graph.n g then None else Some r.Bfs.ecc

let sum_distance g v =
  let ws = Bfs.create_workspace (Graph.n g) in
  let r = Bfs.reach ws g v in
  if r.Bfs.reached < Graph.n g then None else Some r.Bfs.sum

let triangle_count g =
  let count = ref 0 in
  Graph.iter_edges
    (fun u v ->
      (* scan the smaller neighborhood for common neighbors above v to
         count each triangle once *)
      let small, other = if Graph.degree g u <= Graph.degree g v then u, v else v, u in
      Graph.iter_neighbors
        (fun w -> if w > max u v && Graph.mem_edge g other w then incr count)
        g small)
    g;
  !count

let local_clustering g v =
  let deg = Graph.degree g v in
  if deg < 2 then 0.0
  else begin
    let neighbors = Graph.neighbors g v in
    let links = ref 0 in
    Array.iter
      (fun a ->
        Array.iter (fun b -> if a < b && Graph.mem_edge g a b then incr links) neighbors)
      neighbors;
    2.0 *. float_of_int !links /. float_of_int (deg * (deg - 1))
  end

let average_clustering g =
  let n = Graph.n g in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for v = 0 to n - 1 do
      acc := !acc +. local_clustering g v
    done;
    !acc /. float_of_int n
  end

let global_clustering g =
  let wedges = ref 0 in
  for v = 0 to Graph.n g - 1 do
    let d = Graph.degree g v in
    wedges := !wedges + (d * (d - 1) / 2)
  done;
  if !wedges = 0 then 0.0
  else 3.0 *. float_of_int (triangle_count g) /. float_of_int !wedges

let degree_assortativity g =
  if Graph.m g = 0 then None
  else begin
    (* Pearson correlation over the 2m ordered edge endpoints *)
    let sum_x = ref 0.0 and sum_xy = ref 0.0 and sum_x2 = ref 0.0 in
    let count = ref 0 in
    Graph.iter_edges
      (fun u v ->
        let du = float_of_int (Graph.degree g u)
        and dv = float_of_int (Graph.degree g v) in
        (* both orientations keep the statistic symmetric *)
        sum_x := !sum_x +. du +. dv;
        sum_xy := !sum_xy +. (2.0 *. du *. dv);
        sum_x2 := !sum_x2 +. (du *. du) +. (dv *. dv);
        count := !count + 2)
      g;
    let nf = float_of_int !count in
    let mean = !sum_x /. nf in
    let var = (!sum_x2 /. nf) -. (mean *. mean) in
    if var <= 1e-12 then None
    else Some (((!sum_xy /. nf) -. (mean *. mean)) /. var)
  end

let is_distance_formula g f =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let ok = ref true in
  let u = ref 0 in
  while !ok && !u < n do
    Bfs.run ws g !u;
    let v = ref 0 in
    while !ok && !v < n do
      let d = Bfs.dist ws !v in
      let d = if d = Bfs.unreachable then -1 else d in
      if f !u !v <> d then ok := false;
      incr v
    done;
    incr u
  done;
  !ok
