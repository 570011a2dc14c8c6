type t = {
  n : int;
  mutable m : int;
  off : int array;  (* row start in the arena *)
  cap : int array;  (* slots reserved for the row *)
  len : int array;  (* live targets, sorted ascending *)
  mutable arena : int array;
  mutable tail : int;  (* first never-allocated arena slot *)
}

let of_csr ?(slack = 2) csr =
  if slack < 0 then invalid_arg "Flexcsr.of_csr: negative slack";
  let n = Csr.n csr in
  let off = Array.make (max n 1) 0 in
  let cap = Array.make (max n 1) 0 in
  let len = Array.make (max n 1) 0 in
  let total = ref 0 in
  for v = 0 to n - 1 do
    let d = Csr.degree csr v in
    off.(v) <- !total;
    cap.(v) <- d + slack;
    len.(v) <- d;
    total := !total + d + slack
  done;
  let arena = Array.make (max !total 1) 0 in
  for v = 0 to n - 1 do
    let i = ref off.(v) in
    Csr.iter_neighbors
      (fun w ->
        arena.(!i) <- w;
        incr i)
      csr v
  done;
  { n; m = Csr.m csr; off; cap; len; arena; tail = !total }

let of_graph ?slack g = of_csr ?slack (Csr.of_graph g)

let n t = t.n

let m t = t.m

let degree t v = t.len.(v)

let iter_neighbors f t v =
  let base = t.off.(v) in
  for i = base to base + t.len.(v) - 1 do
    f t.arena.(i)
  done

let neighbors t v = Array.sub t.arena t.off.(v) t.len.(v)

let rows t = (t.off, t.len, t.arena)

let to_csr t =
  let g = Graph.create t.n in
  for v = 0 to t.n - 1 do
    iter_neighbors (fun w -> if v < w then Graph.add_edge g v w) t v
  done;
  Csr.of_graph g

let to_graph t =
  let g = Graph.create t.n in
  for v = 0 to t.n - 1 do
    iter_neighbors (fun w -> if v < w then Graph.add_edge g v w) t v
  done;
  g

(* number of entries in row [v] strictly below [w] *)
let rank t v w =
  let base = t.off.(v) in
  let lo = ref 0 and hi = ref t.len.(v) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.arena.(base + mid) < w then lo := mid + 1 else hi := mid
  done;
  !lo

let mem_edge t v w =
  let r = rank t v w in
  r < t.len.(v) && t.arena.(t.off.(v) + r) = w

(* Relocate row [v] to the arena tail with doubled capacity when full; the
   old slot is abandoned (moves are few relative to m). *)
let ensure_capacity t v =
  if t.len.(v) = t.cap.(v) then begin
    let newcap = max 4 (2 * t.cap.(v)) in
    let need = t.tail + newcap in
    if need > Array.length t.arena then begin
      let size = max need (2 * Array.length t.arena) in
      let a = Array.make size 0 in
      Array.blit t.arena 0 a 0 t.tail;
      t.arena <- a
    end;
    Array.blit t.arena t.off.(v) t.arena t.tail t.len.(v);
    t.off.(v) <- t.tail;
    t.cap.(v) <- newcap;
    t.tail <- t.tail + newcap
  end

let insert t v w =
  ensure_capacity t v;
  let r = rank t v w in
  let base = t.off.(v) in
  Array.blit t.arena (base + r) t.arena (base + r + 1) (t.len.(v) - r);
  t.arena.(base + r) <- w;
  t.len.(v) <- t.len.(v) + 1

let delete t v w =
  let r = rank t v w in
  let base = t.off.(v) in
  if not (r < t.len.(v) && t.arena.(base + r) = w) then
    invalid_arg "Flexcsr.remove_edge: absent edge";
  Array.blit t.arena (base + r + 1) t.arena (base + r) (t.len.(v) - r - 1);
  t.len.(v) <- t.len.(v) - 1

let add_edge t v w =
  if v = w || v < 0 || w < 0 || v >= t.n || w >= t.n then
    invalid_arg "Flexcsr.add_edge: bad endpoints";
  if mem_edge t v w then invalid_arg "Flexcsr.add_edge: edge present";
  insert t v w;
  insert t w v;
  t.m <- t.m + 1

let remove_edge t v w =
  delete t v w;
  delete t w v;
  t.m <- t.m - 1

(* The three BFS kernels below differ only in how the source row is
   scanned: as-is, minus one target, or minus one target plus one virtual
   neighbor. The modified edge is incident to the source, so it is only
   ever traversed out of the source row (the reverse direction re-enters
   the already-settled source) — one special case, exact distances. *)

let bfs_core t src ~drop ~add ~dist ~queue =
  Array.fill dist 0 t.n (-1);
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let sum = ref 0 and ecc = ref 0 in
  let arena = t.arena and off = t.off and len = t.len in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dnext = dist.(v) + 1 in
    let base = off.(v) in
    for i = base to base + len.(v) - 1 do
      let w = arena.(i) in
      if dist.(w) < 0 && not (v = src && w = drop) then begin
        dist.(w) <- dnext;
        sum := !sum + dnext;
        if dnext > !ecc then ecc := dnext;
        queue.(!tail) <- w;
        incr tail
      end
    done;
    if v = src && add >= 0 && dist.(add) < 0 then begin
      dist.(add) <- 1;
      sum := !sum + 1;
      if !ecc = 0 then ecc := 1;
      queue.(!tail) <- add;
      incr tail
    end
  done;
  (!tail, !sum, !ecc)

let bfs_stats t src ~dist ~queue = bfs_core t src ~drop:(-1) ~add:(-1) ~dist ~queue

let bfs_delete_stats t src ~drop ~dist ~queue =
  bfs_core t src ~drop ~add:(-1) ~dist ~queue

let bfs_swap_stats t src ~drop ~add ~dist ~queue =
  if mem_edge t src add then invalid_arg "Flexcsr.bfs_swap_stats: add present";
  bfs_core t src ~drop ~add ~dist ~queue

(* A vertex's set of first hops is the union of its predecessors' sets, so
   keeping a singleton or -1 costs one compare per edge into the next
   level. The source row is scanned first: each neighbour is its own hop. *)
let bfs_hop_stats t src ~dist ~hop ~queue =
  Array.fill dist 0 t.n (-1);
  dist.(src) <- 0;
  hop.(src) <- -1;
  queue.(0) <- src;
  let arena = t.arena and off = t.off and len = t.len in
  let tail = ref 1 in
  for i = off.(src) to off.(src) + len.(src) - 1 do
    let w = arena.(i) in
    dist.(w) <- 1;
    hop.(w) <- w;
    queue.(!tail) <- w;
    incr tail
  done;
  let head = ref 1 and sum = ref len.(src) in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dnext = dist.(v) + 1 and h = hop.(v) in
    for i = off.(v) to off.(v) + len.(v) - 1 do
      let u = arena.(i) in
      let du = dist.(u) in
      if du < 0 then begin
        dist.(u) <- dnext;
        hop.(u) <- h;
        sum := !sum + dnext;
        queue.(!tail) <- u;
        incr tail
      end
      else if du = dnext && hop.(u) <> h then hop.(u) <- -1
    done
  done;
  (!tail, !sum, dist.(queue.(!tail - 1)))

(* In BFS order, so that a vertex's predecessors are settled before it.
   The drops are the source's neighbours, at level 1, ahead of every
   vertex whose first hop they are: marking them in [excess] first lets
   each later vertex read excess.(hop) as "my first hop is a drop". *)
let drop_excess t ~drops ~reached ~dist ~hop ~queue ~excess =
  let src = queue.(0) in
  iter_neighbors (fun y -> excess.(y) <- 0) t src;
  Array.iter
    (fun w ->
      if w < 0 || w >= t.n || dist.(w) <> 1 || excess.(w) <> 0 then
        invalid_arg "Flexcsr.drop_excess: drops must be distinct neighbours of the source";
      excess.(w) <- 1)
    drops;
  excess.(src) <- 0;
  let sums = Array.make (Array.length drops) 0 in
  let arena = t.arena and off = t.off and len = t.len in
  for qi = 1 to reached - 1 do
    let u = queue.(qi) in
    let w = hop.(u) in
    if w < 0 || excess.(w) = 0 then excess.(u) <- 0
    else begin
      (* excess 1: a path of length d(u) + 1 avoiding vw, whose last step
         comes from a level-mate with another first hop or from a
         predecessor that already has excess 1 *)
      let du = dist.(u) in
      let e = ref 2 and i = ref off.(u) in
      let stop = off.(u) + len.(u) in
      while !e = 2 && !i < stop do
        let y = arena.(!i) in
        let dy = dist.(y) in
        if (dy = du && hop.(y) <> w) || (dy = du - 1 && hop.(y) = w && excess.(y) = 1)
        then e := 1;
        incr i
      done;
      excess.(u) <- !e;
      let k = ref 0 in
      while drops.(!k) <> w do
        incr k
      done;
      sums.(!k) <- sums.(!k) + !e
    end
  done;
  sums
