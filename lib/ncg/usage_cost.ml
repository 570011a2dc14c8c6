type version = Sum | Max

let infinite = max_int / 4

let is_infinite c = c >= infinite

let vertex_cost ws version g v =
  let r = Bfs.reach ws g v in
  if r.Bfs.reached < Graph.n g then infinite
  else
    match version with
    | Sum -> r.Bfs.sum
    | Max -> r.Bfs.ecc

let social_cost version g =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let ws = Bfs.create_workspace n in
    match version with
    | Sum ->
      let rec loop v acc =
        if v >= n then acc
        else begin
          let c = vertex_cost ws Sum g v in
          if is_infinite c then infinite else loop (v + 1) (acc + c)
        end
      in
      loop 0 0
    | Max ->
      let rec loop v acc =
        if v >= n then acc
        else begin
          let c = vertex_cost ws Max g v in
          if is_infinite c then infinite else loop (v + 1) (max acc c)
        end
      in
      loop 0 0
  end

let social_cost_lower_bound version ~n ~m =
  if n <= 1 then 0
  else
    match version with
    | Sum ->
      let ordered_pairs = n * (n - 1) in
      (2 * m) + (2 * (ordered_pairs - (2 * m)))
    | Max -> if m >= n * (n - 1) / 2 then 1 else 2
