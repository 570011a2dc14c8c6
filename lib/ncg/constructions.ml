let star = Generators.star

let double_star = Generators.double_star

(* --- Theorem 5 graph --------------------------------------------------- *)

type theorem5_role =
  | Hub
  | Branch of int
  | Cluster of int * int
  | Collector of int

let theorem5_vertex = function
  | Hub -> 0
  | Branch i when 1 <= i && i <= 3 -> i
  | Cluster (i, k) when 1 <= i && i <= 3 && 1 <= k && k <= 2 ->
    4 + (2 * (i - 1)) + (k - 1)
  | Collector i when 1 <= i && i <= 3 -> 9 + i
  | Branch _ | Cluster _ | Collector _ ->
    invalid_arg "Constructions.theorem5_vertex: role out of range"

let theorem5_role v =
  match v with
  | 0 -> Hub
  | 1 | 2 | 3 -> Branch v
  | _ when 4 <= v && v <= 9 -> Cluster (((v - 4) / 2) + 1, ((v - 4) mod 2) + 1)
  | 10 | 11 | 12 -> Collector (v - 9)
  | _ -> invalid_arg "Constructions.theorem5_role: vertex out of range"

let theorem5_variant ~crossed:(x12, x23, x13) =
  let g = Graph.create 13 in
  let v = theorem5_vertex in
  for i = 1 to 3 do
    Graph.add_edge g (v Hub) (v (Branch i));
    Graph.add_edge g (v (Branch i)) (v (Cluster (i, 1)));
    Graph.add_edge g (v (Branch i)) (v (Cluster (i, 2)));
    Graph.add_edge g (v (Collector i)) (v (Cluster (i, 1)));
    Graph.add_edge g (v (Collector i)) (v (Cluster (i, 2)))
  done;
  let matching i j is_crossed =
    for k = 1 to 2 do
      Graph.add_edge g (v (Cluster (i, k)))
        (v (Cluster (j, if is_crossed then 3 - k else k)))
    done
  in
  matching 1 2 x12;
  matching 2 3 x23;
  matching 1 3 x13;
  g

(* parallel matchings C1-C2 and C2-C3, crossed matching C1-C3 — the
   paper's "obvious ... obvious ... other" choice *)
let theorem5_graph = theorem5_variant ~crossed:(false, false, true)

let theorem5_improving_swap =
  Swap.Swap
    {
      actor = theorem5_vertex (Collector 1);
      drop = theorem5_vertex (Cluster (1, 1));
      add = theorem5_vertex (Cluster (2, 1));
    }

let cycle_with_pendant n = Generators.attach_pendant (Generators.cycle n) 0

let sum_diameter3_witness = Generators.attach_pendant (Generators.petersen ()) 0

let sum_diameter3_minimal =
  Graph.of_edges 8
    [
      (0, 5); (0, 6); (0, 7);
      (1, 2); (1, 6); (1, 7);
      (2, 5);
      (3, 4); (3, 7);
      (4, 5); (4, 6);
      (5, 7);
    ]

let max_diameter4_small = Generators.sunlet 5

(* --- Theorem 12 torus --------------------------------------------------- *)

let check_torus_k k =
  if k < 2 then invalid_arg "Constructions.torus: need k >= 2"

let torus_vertex k (i, j) =
  check_torus_k k;
  let m = 2 * k in
  let i = ((i mod m) + m) mod m and j = ((j mod m) + m) mod m in
  if (i + j) mod 2 <> 0 then
    invalid_arg "Constructions.torus_vertex: odd-parity point";
  (i * k) + ((j - (i mod 2)) / 2)

let torus_coords k v =
  check_torus_k k;
  if v < 0 || v >= 2 * k * k then invalid_arg "Constructions.torus_coords";
  let i = v / k in
  let j = (2 * (v mod k)) + (i mod 2) in
  i, j

let circular_distance m a b =
  let d = abs (a - b) in
  min d (m - d)

let torus_distance k u v =
  let iu, ju = torus_coords k u and iv, jv = torus_coords k v in
  let m = 2 * k in
  max (circular_distance m iu iv) (circular_distance m ju jv)

let torus k =
  check_torus_k k;
  let g = Graph.create (2 * k * k) in
  let m = 2 * k in
  for v = 0 to (2 * k * k) - 1 do
    let i, j = torus_coords k v in
    List.iter
      (fun (di, dj) ->
        let w = torus_vertex k ((i + di + m) mod m, (j + dj + m) mod m) in
        ignore (Graph.try_add_edge g v w))
      [ (1, 1); (1, -1); (-1, 1); (-1, -1) ]
  done;
  g

(* --- d-dimensional generalization -------------------------------------- *)

let check_torus_d ~dim k =
  if dim < 1 then invalid_arg "Constructions.torus_d: need dim >= 1";
  if k < 2 then invalid_arg "Constructions.torus_d: need k >= 2"

(* Vertex index: parity bit p (0 even, 1 odd) plus mixed-radix rank of
   ((x_l - p) / 2) over base k. *)
let torus_d_count ~dim k =
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  2 * pow k dim

let torus_d_index ~dim k coords =
  let m = 2 * k in
  let p = ((coords.(0) mod m) + m) mod m mod 2 in
  let rank = ref p in
  for l = 0 to dim - 1 do
    let x = ((coords.(l) mod m) + m) mod m in
    if x mod 2 <> p then invalid_arg "Constructions.torus_d: mixed parity";
    rank := (!rank * k) + ((x - p) / 2)
  done;
  !rank

let torus_d_coords ~dim k v =
  check_torus_d ~dim k;
  if v < 0 || v >= torus_d_count ~dim k then
    invalid_arg "Constructions.torus_d_coords";
  let out = Array.make dim 0 in
  let r = ref v in
  for l = dim - 1 downto 0 do
    out.(l) <- !r mod k;
    r := !r / k
  done;
  let p = !r in
  assert (p = 0 || p = 1);
  Array.map (fun halves -> (2 * halves) + p) out

let torus_d_distance ~dim k u v =
  let cu = torus_d_coords ~dim k u and cv = torus_d_coords ~dim k v in
  let m = 2 * k in
  let best = ref 0 in
  for l = 0 to dim - 1 do
    best := max !best (circular_distance m cu.(l) cv.(l))
  done;
  !best

let torus_d ~dim k =
  check_torus_d ~dim k;
  let n = torus_d_count ~dim k in
  let g = Graph.create n in
  let m = 2 * k in
  let coords = Array.make dim 0 in
  for v = 0 to n - 1 do
    let base = torus_d_coords ~dim k v in
    (* all 2^dim sign patterns *)
    for signs = 0 to (1 lsl dim) - 1 do
      for l = 0 to dim - 1 do
        let step = if signs land (1 lsl l) <> 0 then 1 else -1 in
        coords.(l) <- (base.(l) + step + m) mod m
      done;
      let w = torus_d_index ~dim k coords in
      if v <> w then ignore (Graph.try_add_edge g v w)
    done
  done;
  g

let conjecture14_nonexample = Generators.path_with_blobs
