let m_edges = Telemetry.counter "scale.gen.edges"

let m_patched = Telemetry.counter "scale.gen.patched"

(* Union-find with path halving: connectivity patching without
   materialising the graph. *)
let find parent i =
  let i = ref i in
  while parent.(!i) <> !i do
    parent.(!i) <- parent.(parent.(!i));
    i := parent.(!i)
  done;
  !i

(* Chain components by their smallest vertices, in ascending order — a
   deterministic function of the edge set alone. *)
let patch_edges ~n edges =
  let parent = Array.init n (fun i -> i) in
  Array.iter
    (fun (u, v) ->
      let ru = find parent u and rv = find parent v in
      if ru <> rv then parent.(ru) <- rv)
    edges;
  let extra = ref [] and prev = ref (-1) in
  let seen = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let r = find parent v in
    if not (Hashtbl.mem seen r) then begin
      Hashtbl.add seen r ();
      if !prev >= 0 then extra := (!prev, v) :: !extra;
      prev := v
    end
  done;
  List.rev !extra

(* Assemble per-vertex forward-target rows (plus patch edges) into one
   edge array, in ascending vertex order. *)
let flatten ~n per_v =
  let cnt = ref 0 in
  Array.iter (fun row -> cnt := !cnt + Array.length row) per_v;
  let edges = Array.make (max !cnt 1) (0, 0) in
  let k = ref 0 in
  for v = 0 to n - 1 do
    Array.iter
      (fun t ->
        edges.(!k) <- (v, t);
        incr k)
      per_v.(v)
  done;
  Array.sub edges 0 !k

let finish ~n per_v =
  let edges = flatten ~n per_v in
  let extra = patch_edges ~n edges in
  let edges =
    if extra = [] then edges else Array.append edges (Array.of_list extra)
  in
  Telemetry.add m_edges (Array.length edges);
  Telemetry.add m_patched (List.length extra);
  Csr.of_edges ~n edges

let er_row ~seed ~n ~p v =
  if p <= 0. || v = n - 1 then [||]
  else if p >= 1. then Array.init (n - 1 - v) (fun i -> v + 1 + i)
  else begin
    let rng = Prng.substream seed v in
    let log1mp = log (1. -. p) in
    let acc = ref [] and cnt = ref 0 in
    let u = ref v and go = ref true in
    while !go do
      let r = Prng.float rng 1.0 in
      let skip = int_of_float (log (1. -. r) /. log1mp) in
      u := !u + 1 + skip;
      if !u < n then begin
        acc := !u :: !acc;
        incr cnt
      end
      else go := false
    done;
    let row = Array.make !cnt 0 in
    List.iteri (fun i x -> row.(!cnt - 1 - i) <- x) !acc;
    row
  end

let er ~seed ~n ~avg_deg =
  if n < 2 then invalid_arg "Scale_gen.er: need n >= 2";
  if avg_deg < 0. then invalid_arg "Scale_gen.er: negative avg_deg";
  let p = min 1. (avg_deg /. float_of_int (n - 1)) in
  finish ~n (Array.init n (er_row ~seed ~n ~p))

let ws_row ~seed ~n ~k ~beta v =
  let targets = Array.init k (fun i -> (v + i + 1) mod n) in
  if beta > 0. then begin
    let rng = Prng.substream seed v in
    for i = 0 to k - 1 do
      if Prng.bernoulli rng beta then begin
        let chosen = ref (-1) and tries = ref 0 in
        while !chosen < 0 && !tries < 64 do
          incr tries;
          let t = Prng.int rng n in
          let d = abs (t - v) in
          let ring_dist = min d (n - d) in
          if ring_dist > k && not (Array.exists (fun x -> x = t) targets) then
            chosen := t
        done;
        if !chosen >= 0 then targets.(i) <- !chosen
      end
    done
  end;
  targets

let ws ~seed ~n ~k ~beta =
  if k < 1 || (2 * k) + 1 > n then
    invalid_arg "Scale_gen.ws: need 1 <= k and 2k + 1 <= n";
  if beta < 0. || beta > 1. then invalid_arg "Scale_gen.ws: beta outside [0,1]";
  finish ~n (Array.init n (ws_row ~seed ~n ~k ~beta))

let ba ~seed ~n ~m =
  if m < 1 || m >= n then invalid_arg "Scale_gen.ba: need 1 <= m < n";
  let per_v = Array.make n [||] in
  (* endpoint multiset of the edges so far: uniform draws from it are
     degree-proportional draws over vertices *)
  let repeated = Array.make (2 * (n - m) * m) 0 in
  let rlen = ref 0 in
  for v = m to n - 1 do
    let targets =
      if v = m then Array.init m (fun i -> i)
      else begin
        let rng = Prng.substream seed v in
        let t = Array.make m (-1) in
        for j = 0 to m - 1 do
          let chosen = ref (-1) in
          while !chosen < 0 do
            let c = repeated.(Prng.int rng !rlen) in
            let dup = ref false in
            for j' = 0 to j - 1 do
              if t.(j') = c then dup := true
            done;
            if not !dup then chosen := c
          done;
          t.(j) <- !chosen
        done;
        t
      end
    in
    per_v.(v) <- targets;
    Array.iter
      (fun t ->
        repeated.(!rlen) <- t;
        incr rlen;
        repeated.(!rlen) <- v;
        incr rlen)
      targets
  done;
  finish ~n per_v
