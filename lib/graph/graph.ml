type t = {
  nv : int;
  mutable ne : int;
  deg : int array;
  adj : int array array ref;  (* rows grow on demand; row v valid in [0, deg.(v)) *)
}

(* Rows are stored unsorted: membership is a linear scan (degrees in
   equilibrium graphs are small) and removal is a swap-with-last, so both
   add and remove are O(deg). *)

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { nv = n; ne = 0; deg = Array.make n 0; adj = ref (Array.make n [||]) }

let n t = t.nv

let m t = t.ne

let check_vertex t v =
  if v < 0 || v >= t.nv then invalid_arg "Graph: vertex out of range"

let degree t v =
  check_vertex t v;
  t.deg.(v)

let row t v = !(t.adj).(v)

let mem_row t v w =
  let r = row t v and d = t.deg.(v) in
  let rec scan i = i < d && (r.(i) = w || scan (i + 1)) in
  scan 0

let mem_edge t v w =
  check_vertex t v;
  check_vertex t w;
  if v = w then false
  else if t.deg.(v) <= t.deg.(w) then mem_row t v w
  else mem_row t w v

let push_row t v w =
  let r = row t v in
  let d = t.deg.(v) in
  if d = Array.length r then begin
    let r' = Array.make (max 4 (2 * d)) (-1) in
    Array.blit r 0 r' 0 d;
    !(t.adj).(v) <- r';
    r'.(d) <- w
  end
  else r.(d) <- w;
  t.deg.(v) <- d + 1

let add_edge t v w =
  check_vertex t v;
  check_vertex t w;
  if v = w then invalid_arg "Graph.add_edge: self-loop";
  if mem_edge t v w then invalid_arg "Graph.add_edge: duplicate edge";
  push_row t v w;
  push_row t w v;
  t.ne <- t.ne + 1

let try_add_edge t v w =
  check_vertex t v;
  check_vertex t w;
  if v = w then invalid_arg "Graph.try_add_edge: self-loop";
  if mem_edge t v w then false
  else begin
    push_row t v w;
    push_row t w v;
    t.ne <- t.ne + 1;
    true
  end

let remove_row t v w =
  let r = row t v and d = t.deg.(v) in
  let rec find i = if i >= d then -1 else if r.(i) = w then i else find (i + 1) in
  let i = find 0 in
  if i < 0 then invalid_arg "Graph.remove_edge: absent edge";
  r.(i) <- r.(d - 1);
  t.deg.(v) <- d - 1

let remove_edge t v w =
  check_vertex t v;
  check_vertex t w;
  if v = w then invalid_arg "Graph.remove_edge: self-loop";
  remove_row t v w;
  remove_row t w v;
  t.ne <- t.ne - 1

let nth_neighbor t v i =
  check_vertex t v;
  if i < 0 || i >= t.deg.(v) then invalid_arg "Graph.nth_neighbor: index";
  (row t v).(i)

let iter_neighbors f t v =
  check_vertex t v;
  let r = row t v and d = t.deg.(v) in
  for i = 0 to d - 1 do
    f r.(i)
  done

let fold_neighbors f acc t v =
  check_vertex t v;
  let r = row t v and d = t.deg.(v) in
  let acc = ref acc in
  for i = 0 to d - 1 do
    acc := f !acc r.(i)
  done;
  !acc

let exists_neighbor p t v =
  check_vertex t v;
  let r = row t v and d = t.deg.(v) in
  let rec scan i = i < d && (p r.(i) || scan (i + 1)) in
  scan 0

let neighbors t v =
  check_vertex t v;
  let a = Array.sub (row t v) 0 t.deg.(v) in
  Array.sort compare a;
  a

let iter_edges f t =
  for v = 0 to t.nv - 1 do
    let r = row t v and d = t.deg.(v) in
    for i = 0 to d - 1 do
      if v < r.(i) then f v r.(i)
    done
  done

let fold_edges f acc t =
  let acc = ref acc in
  iter_edges (fun u v -> acc := f !acc u v) t;
  !acc

let edges t =
  fold_edges (fun acc u v -> (u, v) :: acc) [] t |> List.sort compare

let of_edges nv es =
  let g = create nv in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let copy t =
  {
    nv = t.nv;
    ne = t.ne;
    deg = Array.copy t.deg;
    adj = ref (Array.init t.nv (fun v -> Array.sub (row t v) 0 t.deg.(v)));
  }

(* bit 62 is the sign bit of an OCaml int *)
let masks t =
  if t.nv > 62 then invalid_arg "Graph.masks: more than 62 vertices";
  Array.init t.nv (fold_neighbors (fun m w -> m lor (1 lsl w)) 0 t)

let equal a b =
  a.nv = b.nv && a.ne = b.ne
  &&
  let ok = ref true in
  iter_edges (fun u v -> if not (mem_edge b u v) then ok := false) a;
  !ok

let hash t =
  (* Sum of per-edge mixes is commutative, hence independent of edge order. *)
  let acc = ref (Prng.hash64 (Int64.of_int t.nv)) in
  iter_edges
    (fun u v ->
      let code = Int64.of_int ((u * t.nv) + v) in
      acc := Int64.add !acc (Prng.hash64 code))
    t;
  Prng.hash64 !acc

let max_degree t = Array.fold_left max 0 t.deg

let min_degree t =
  if t.nv = 0 then invalid_arg "Graph.min_degree: empty graph";
  Array.fold_left min t.deg.(0) t.deg

let degree_sequence t =
  let d = Array.copy t.deg in
  Array.sort (fun a b -> compare b a) d;
  d

let is_regular t = t.nv = 0 || max_degree t = min_degree t

let complement_edges t =
  let acc = ref [] in
  for u = t.nv - 1 downto 0 do
    for v = t.nv - 1 downto u + 1 do
      if not (mem_edge t u v) then acc := (u, v) :: !acc
    done
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>graph(n=%d, m=%d) {" t.nv t.ne;
  iter_edges (fun u v -> Format.fprintf ppf "@ %d-%d" u v) t;
  Format.fprintf ppf " }@]"

let to_string t = Format.asprintf "%a" pp t
