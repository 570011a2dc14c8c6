type profile = { n : int; r : int; epsilon : float }

let require_usable g =
  if Graph.n g < 2 then invalid_arg "Distance_uniform: need n >= 2";
  if not (Components.is_connected g) then
    invalid_arg "Distance_uniform: graph must be connected"

(* sphere_counts.(v).(r) = |S_r(v)|, ragged per-vertex rows *)
let sphere_counts g =
  let n = Graph.n g in
  Array.init n (fun v -> Metrics.distance_histogram g v)

let eps_of_counts ~almost counts ~n ~r =
  let worst = ref 0.0 in
  Array.iter
    (fun hist ->
      let at d = if d >= 0 && d < Array.length hist then hist.(d) else 0 in
      let c = at r + if almost then at (r + 1) else 0 in
      let eps = 1.0 -. (float_of_int c /. float_of_int n) in
      if eps > !worst then worst := eps)
    counts;
  !worst

let best ~almost g =
  require_usable g;
  let n = Graph.n g in
  let counts = sphere_counts g in
  let max_r = Array.fold_left (fun acc h -> max acc (Array.length h - 1)) 0 counts in
  let best_r = ref 1 and best_eps = ref infinity in
  for r = 1 to max max_r 1 do
    let eps = eps_of_counts ~almost counts ~n ~r in
    if eps < !best_eps then begin
      best_eps := eps;
      best_r := r
    end
  done;
  { n; r = !best_r; epsilon = !best_eps }

let best_uniform g = best ~almost:false g

let best_almost_uniform g = best ~almost:true g

let epsilon_at g ~r =
  require_usable g;
  eps_of_counts ~almost:false (sphere_counts g) ~n:(Graph.n g) ~r

let is_distance_uniform g ~epsilon = (best_uniform g).epsilon <= epsilon

let pairwise_modal_fraction g =
  require_usable g;
  let counts = sphere_counts g in
  let n = Graph.n g in
  let max_r = Array.fold_left (fun acc h -> max acc (Array.length h - 1)) 0 counts in
  let totals = Array.make (max_r + 1) 0 in
  Array.iter
    (fun hist -> Array.iteri (fun d c -> if d >= 1 then totals.(d) <- totals.(d) + c) hist)
    counts;
  let mode = ref 1 in
  for d = 1 to max_r do
    if totals.(d) > totals.(!mode) then mode := d
  done;
  let pairs = n * (n - 1) in
  !mode, float_of_int totals.(!mode) /. float_of_int pairs

type power_report = {
  x : int;
  diameter : int;
  almost : profile;
  exact : profile;
}

let power_report g ~x =
  require_usable g;
  let p = Power.power g x in
  let diameter =
    match Metrics.diameter p with
    | Some d -> d
    | None -> invalid_arg "Distance_uniform.power_report: power disconnected"
  in
  { x; diameter; almost = best_almost_uniform p; exact = best_uniform p }

let lg n = log (float_of_int n) /. log 2.0

let theorem13_power g =
  require_usable g;
  let n = Graph.n g in
  let x = 1 + int_of_float (Float.ceil (16.0 *. lg n)) in
  match Metrics.diameter g with
  | Some d when d >= 1 -> max 1 (min x d)
  | Some _ | None -> 1

let skew_triple_fraction ?rng ?(samples = 200_000) g ~p =
  require_usable g;
  let n = Graph.n g in
  let threshold = p *. lg n in
  let dist = Bfs.all_pairs g in
  let is_skew a b c =
    float_of_int dist.(a).(c) > threshold +. float_of_int dist.(a).(b)
  in
  let total_exact = n * (n - 1) * (n - 2) in
  if total_exact <= samples then begin
    let skew = ref 0 in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        for c = 0 to n - 1 do
          if a <> b && b <> c && a <> c && is_skew a b c then incr skew
        done
      done
    done;
    float_of_int !skew /. float_of_int total_exact
  end
  else begin
    let rng = match rng with Some r -> r | None -> Prng.create 42 in
    let skew = ref 0 in
    let drawn = ref 0 in
    while !drawn < samples do
      let a = Prng.int rng n and b = Prng.int rng n and c = Prng.int rng n in
      if a <> b && b <> c && a <> c then begin
        incr drawn;
        if is_skew a b c then incr skew
      end
    done;
    float_of_int !skew /. float_of_int samples
  end
