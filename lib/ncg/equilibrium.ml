type verdict =
  | Equilibrium
  | Disconnected
  | Violation of Swap.move * int
  | Alpha_violation of Alpha_game.move * float

let pp_verdict ppf = function
  | Equilibrium -> Format.pp_print_string ppf "equilibrium"
  | Disconnected -> Format.pp_print_string ppf "disconnected"
  | Violation (mv, d) -> Format.fprintf ppf "violation (%a, delta=%d)" Swap.pp_move mv d
  | Alpha_violation (mv, d) ->
    Format.fprintf ppf "violation (%a, delta=%g)" Alpha_game.pp_move mv d

exception Witness of Swap.move * int

(* First violating move of a single agent, in move-enumeration order,
   above 62 vertices. Both the sequential and the parallel checkers are
   built from this per-agent scan, so their witnesses coincide.
   Candidates are evaluated by the incremental engine:
   [Swap_eval.delta_below] returns the exact naive delta whenever it is
   below the cutoff and certifies the skip otherwise, so verdicts and
   witnesses are byte-identical to the apply/BFS/undo oracle.
   Equilibrium demands that a max deletion *strictly increases* the
   actor's local diameter, so deletions violate already at delta = 0. *)
let agent_violation version eng v =
  try
    Swap.iter_moves ~include_deletions:(version = Usage_cost.Max) (Swap_eval.graph eng) v
      (fun mv ->
        let cutoff = match mv with Swap.Swap _ -> 0 | Swap.Delete _ -> 1 in
        match Swap_eval.delta_below eng version mv ~cutoff with
        | Some d -> raise (Witness (mv, d))
        | None -> ());
    None
  with Witness (mv, d) -> Some (mv, d)

(* The word-parallel scan: on at most 62 vertices the graph is its
   [Graph.masks] ([rows.(v)] has bit [w] set iff vw is an edge), and a
   candidate move is priced by a bounded frontier BFS over those masks.
   62 is no tunable: it is the vertex bits 0-61 of an OCaml int below its
   sign bit, so every mask stays non-negative. *)
let word_max_n = 62

(* [bit_at.(b mod 67)] is [i] for [b = 2^i]: 2 has order 66 modulo the
   prime 67, so 2^0 ... 2^61 leave distinct residues *)
let bit_at =
  let t = Array.make 67 0 in
  for i = 0 to word_max_n - 1 do
    t.((1 lsl i) mod 67) <- i
  done;
  t

(* the union of [acc] and the rows of the vertices in [mask], visiting
   set bits only *)
let rec expand rows mask acc =
  if mask = 0 then acc
  else begin
    let b = mask land -mask in
    expand rows (mask lxor b) (acc lor rows.(bit_at.(b mod 67)))
  end

(* One BFS level per call: [frontier] holds the vertices at depth [d],
   [seen] everything within depth [d] and [s] their distance sum. Every
   vertex still unreached lies at depth [d + 1] or more, so once
   [s + (n - reached)(d + 1)] reaches [limit] the cost does too (the
   bound [Swap_eval] aborts its fallback BFS with). *)
let rec sum_levels rows n limit seen frontier reached s d =
  if reached = n then s
  else if s + ((n - reached) * (d + 1)) >= limit then limit
  else begin
    let next = expand rows frontier 0 land lnot seen in
    if next = 0 then Usage_cost.infinite
    else begin
      let k = Bitset.popcount next in
      let d = d + 1 in
      sum_levels rows n limit (seen lor next) next (reached + k) (s + (k * d)) d
    end
  end

(* the same for the local diameter: vertices unreached past depth [d]
   put it at [d + 1] or more *)
let rec max_levels rows all limit seen frontier d =
  if seen = all then d
  else if d + 1 >= limit then limit
  else begin
    let next = expand rows frontier 0 land lnot seen in
    if next = 0 then Usage_cost.infinite
    else max_levels rows all limit (seen lor next) next (d + 1)
  end

(* [v]'s cost on [rows]: exact when below [limit], otherwise some value
   at least [limit]; {!Usage_cost.infinite} when [v] reaches too few *)
let word_cost version rows n v ~limit =
  let b = 1 lsl v in
  match version with
  | Usage_cost.Sum -> sum_levels rows n limit b b 1 0 0
  | Usage_cost.Max -> max_levels rows ((1 lsl n) - 1) limit b b 0

(* [agent_violation] on the masks, move for move: drops ascending, for
   max each drop's deletion first (cutoff 1), then adds ascending
   (cutoff 0). A move xors its bits into [rows] and the same xor takes it
   back, so [rows] is unchanged on return. *)
let word_violation version rows v =
  let n = Array.length rows in
  let bv = 1 lsl v in
  let before = word_cost version rows n v ~limit:max_int in
  let targets = ((1 lsl n) - 1) land lnot (rows.(v) lor bv) in
  let rec adds drop m =
    if m = 0 then None
    else begin
      let b = m land -m in
      let add = bit_at.(b mod 67) in
      rows.(v) <- rows.(v) lxor b;
      rows.(add) <- rows.(add) lxor bv;
      let after = word_cost version rows n v ~limit:before in
      rows.(v) <- rows.(v) lxor b;
      rows.(add) <- rows.(add) lxor bv;
      if after < before then Some (Swap.Swap { actor = v; drop; add }, after - before)
      else adds drop (m lxor b)
    end
  in
  let rec drops m =
    if m = 0 then None
    else begin
      let b = m land -m in
      let drop = bit_at.(b mod 67) in
      rows.(v) <- rows.(v) lxor b;
      rows.(drop) <- rows.(drop) lxor bv;
      let deletion =
        match version with
        | Usage_cost.Sum -> None
        | Usage_cost.Max ->
          let after = word_cost version rows n v ~limit:(before + 1) in
          if after <= before then Some (Swap.Delete { actor = v; drop }, after - before)
          else None
      in
      let w = match deletion with Some _ -> deletion | None -> adds drop targets in
      rows.(v) <- rows.(v) lxor b;
      rows.(drop) <- rows.(drop) lxor bv;
      match w with Some _ -> w | None -> drops (m lxor b)
    end
  in
  drops rows.(v)

(* The per-agent scan a check runs and its connectivity pre-check: the
   word scan up to 62 vertices, the engine above. The engine is shared
   across agents, so its lazily computed distance rows amortise over the
   whole check; its pre-check reads vertex 0's row, which agent 0's scan
   wants anyway. *)
let scanner version g =
  let n = Graph.n g in
  if n <= word_max_n then begin
    let rows = Graph.masks g in
    let connected =
      n <= 1 || word_cost Usage_cost.Max rows n 0 ~limit:max_int < Usage_cost.infinite
    in
    (connected, word_violation version rows)
  end
  else begin
    let eng = Swap_eval.create g in
    (Swap_eval.connected eng, agent_violation version eng)
  end

(* Agents whose move lists were scanned, early exits taken, and — as a
   gauge — the actor index of the last violating move found. The span
   wraps the whole verdict including the connectivity pre-check. Note the
   parallel scan may probe a scheduling-dependent set of agents past the
   witness, so [agents_scanned] is exact only on the sequential path. *)
let m_agents = Telemetry.counter "equilibrium.agents_scanned"

let m_early_exits = Telemetry.counter "equilibrium.early_exits"

let m_violating_agent = Telemetry.gauge "equilibrium.violating_agent"

let m_check = Telemetry.span "equilibrium.check"

(* Above 62 vertices a pool fans the per-agent engine scans across
   domains. The engine's bound fallback applies and undoes moves on the
   graph, so every domain works on its own [Graph.copy] behind its own
   engine; [Pool.parallel_find] keeps the lowest-agent witness, matching
   the sequential scan order. *)
let check_with version ?pool g =
  let t0 = Telemetry.start () in
  let connected, violation = scanner version g in
  let verdict =
    if not connected then Disconnected
    else begin
      let n = Graph.n g in
      let witness =
        match pool with
        | Some pool when Pool.jobs pool > 1 && n > word_max_n ->
          Pool.parallel_find pool ~n
            ~init:(fun () -> Swap_eval.create (Graph.copy g))
            (fun eng v ->
              Telemetry.incr m_agents;
              agent_violation version eng v)
        | _ ->
          let rec scan v =
            if v >= n then None
            else begin
              Telemetry.incr m_agents;
              match violation v with
              | Some _ as w -> w
              | None -> scan (v + 1)
            end
          in
          scan 0
      in
      match witness with
      | Some (mv, d) ->
        Telemetry.incr m_early_exits;
        Telemetry.set_gauge m_violating_agent (Swap.actor mv);
        Violation (mv, d)
      | None -> Equilibrium
    end
  in
  Telemetry.stop m_check t0;
  verdict

(* The alpha path goes through the same telemetry shell as the basic
   games but scans with [Alpha_game.first_improving_move] — the pool is
   unused (the per-move delta is already an apply/BFS/undo on the
   state). Disconnection is reported as [Disconnected], matching the
   basic games, rather than as a Buy witness with delta = -∞. *)
let check_alpha_game st =
  let t0 = Telemetry.start () in
  let g = Alpha_game.graph st in
  let verdict =
    if not (Components.is_connected g) then Disconnected
    else begin
      let n = Graph.n g in
      let rec scan v =
        if v >= n then None
        else begin
          Telemetry.incr m_agents;
          match Alpha_game.first_improving_move st v with
          | Some _ as w -> w
          | None -> scan (v + 1)
        end
      in
      match scan 0 with
      | Some (mv, d) ->
        Telemetry.incr m_early_exits;
        Telemetry.set_gauge m_violating_agent (Alpha_game.actor mv);
        Alpha_violation (mv, d)
      | None -> Equilibrium
    end
  in
  Telemetry.stop m_check t0;
  verdict

let uses_pool game g = Game.is_basic game && Graph.n g > word_max_n

let check ?pool game g =
  match game with
  | Game.Sum -> check_with Usage_cost.Sum ?pool g
  | Game.Max -> check_with Usage_cost.Max ?pool g
  | Game.Alpha a ->
    ignore pool;
    check_alpha_game (Alpha_game.create ~alpha:a g)

let is_equilibrium ?pool game g = check ?pool game g = Equilibrium

let violating_agents game g =
  let scan version =
    let _, violation = scanner version g in
    fun v -> violation v <> None
  in
  let violates =
    match game with
    | Game.Sum -> scan Usage_cost.Sum
    | Game.Max -> scan Usage_cost.Max
    | Game.Alpha alpha ->
      let st = Alpha_game.create ~alpha g in
      fun v -> Alpha_game.first_improving_move st v <> None
  in
  let count = ref 0 in
  for v = 0 to Graph.n g - 1 do
    if violates v then incr count
  done;
  !count

let check_sum ?pool g = check ?pool Game.Sum g

let is_sum_equilibrium ?pool g = is_equilibrium ?pool Game.Sum g

let check_max ?pool g = check ?pool Game.Max g

let is_max_equilibrium ?pool g = is_equilibrium ?pool Game.Max g

(* Ascending non-neighbor candidates of [v], filled into one right-sized
   array — the k-swap/insertion enumerators below call this per vertex,
   where the previous [List.init |> List.filter |> Array.of_list] chain
   churned O(n) list cells each time. *)
let non_neighbors g v =
  let n = Graph.n g in
  let buf = Array.make (max n 1) 0 in
  let k = ref 0 in
  for w = 0 to n - 1 do
    if w <> v && not (Graph.mem_edge g v w) then begin
      buf.(!k) <- w;
      incr k
    end
  done;
  Array.sub buf 0 !k

let find_non_critical_deletion g =
  (* deletion deltas come straight off the engine's cached rows: one
     distance row per endpoint (shared across its edges) plus one drop
     row per directed deletion, instead of two fresh BFS per candidate *)
  let eng = Swap_eval.create g in
  try
    List.iter
      (fun (u, v) ->
        let mu = Swap.Delete { actor = u; drop = v } in
        (match Swap_eval.delta_below eng Usage_cost.Max mu ~cutoff:1 with
        | Some du -> raise (Witness (mu, du))
        | None -> ());
        let mv = Swap.Delete { actor = v; drop = u } in
        match Swap_eval.delta_below eng Usage_cost.Max mv ~cutoff:1 with
        | Some dv -> raise (Witness (mv, dv))
        | None -> ())
      (Graph.edges g);
    None
  with Witness (mv, d) -> Some (mv, d)

let is_deletion_critical g = find_non_critical_deletion g = None

exception Pair of int * int

let find_insertion_violation g =
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let ecc = Array.make n 0 in
  for v = 0 to n - 1 do
    ecc.(v) <- Usage_cost.vertex_cost ws Usage_cost.Max g v
  done;
  try
    List.iter
      (fun (u, v) ->
        Graph.add_edge g u v;
        let eu = Usage_cost.vertex_cost ws Usage_cost.Max g u in
        let ev = Usage_cost.vertex_cost ws Usage_cost.Max g v in
        Graph.remove_edge g u v;
        if eu < ecc.(u) || ev < ecc.(v) then raise (Pair (u, v)))
      (Graph.complement_edges g);
    None
  with Pair (u, v) -> Some (u, v)

let is_insertion_stable g = find_insertion_violation g = None

let is_stable_under_insertions g ~k =
  if k < 0 then invalid_arg "Equilibrium.is_stable_under_insertions";
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let stable = ref true in
  let v = ref 0 in
  while !stable && !v < n do
    let base = Usage_cost.vertex_cost ws Usage_cost.Max g !v in
    let candidates = non_neighbors g !v in
    let chosen = Array.make (max k 1) (-1) in
    (* enumerate all subsets of size 1..k of absent incident edges at v *)
    let rec go depth lo size =
      if not !stable then ()
      else if depth = size then begin
        for i = 0 to size - 1 do
          Graph.add_edge g !v candidates.(chosen.(i))
        done;
        let after = Usage_cost.vertex_cost ws Usage_cost.Max g !v in
        for i = size - 1 downto 0 do
          Graph.remove_edge g !v candidates.(chosen.(i))
        done;
        if after < base then stable := false
      end
      else
        for i = lo to Array.length candidates - (size - depth) do
          if !stable then begin
            chosen.(depth) <- i;
            go (depth + 1) (i + 1) size
          end
        done
    in
    for size = 1 to min k (Array.length candidates) do
      go 0 0 size
    done;
    incr v
  done;
  !stable

(* enumerate all size-[size] subsets of [pool] (given as an array),
   feeding each to [f] as a list; stops early when [f] sets [stop] *)
let iter_subsets pool size stop f =
  let m = Array.length pool in
  let chosen = Array.make (max size 1) 0 in
  let rec go depth lo =
    if !stop then ()
    else if depth = size then begin
      let subset = ref [] in
      for i = size - 1 downto 0 do
        subset := pool.(chosen.(i)) :: !subset
      done;
      f !subset
    end
    else
      for i = lo to m - (size - depth) do
        if not !stop then begin
          chosen.(depth) <- i;
          go (depth + 1) (i + 1)
        end
      done
  in
  if size <= m then go 0 0

let find_k_swap_violation version g ~k =
  if k < 1 then invalid_arg "Equilibrium.find_k_swap_violation";
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let witness = ref None in
  let stop = ref false in
  let v = ref 0 in
  while (not !stop) && !v < n do
    let actor = !v in
    let base = Usage_cost.vertex_cost ws version g actor in
    let neighbors = Graph.neighbors g actor in
    let fresh = non_neighbors g actor in
    let jmax = min k (min (Array.length neighbors) (Array.length fresh)) in
    for j = 1 to jmax do
      iter_subsets neighbors j stop (fun drops ->
          iter_subsets fresh j stop (fun adds ->
              List.iter (fun w -> Graph.remove_edge g actor w) drops;
              List.iter (fun w -> Graph.add_edge g actor w) adds;
              let after = Usage_cost.vertex_cost ws version g actor in
              List.iter (fun w -> Graph.remove_edge g actor w) adds;
              List.iter (fun w -> Graph.add_edge g actor w) drops;
              if after < base then begin
                stop := true;
                witness := Some (actor, List.combine drops adds)
              end))
    done;
    incr v
  done;
  !witness

let is_stable_under_k_swaps version g ~k =
  find_k_swap_violation version g ~k = None

let k_change_stable_sampled rng g ~k ~trials =
  if k < 1 then invalid_arg "Equilibrium.k_change_stable_sampled";
  let n = Graph.n g in
  let ws = Bfs.create_workspace n in
  let stable = ref true in
  let v = ref 0 in
  while !stable && !v < n do
    let base = Usage_cost.vertex_cost ws Usage_cost.Max g !v in
    let nonneighbors = non_neighbors g !v in
    let neigh = Graph.neighbors g !v in
    let t = ref 0 in
    while !stable && !t < trials do
      let j = 1 + Prng.int rng k in
      let j = min j (min (Array.length neigh) (Array.length nonneighbors)) in
      if j >= 1 then begin
        let drop_idx = Prng.sample_distinct rng ~n:(Array.length neigh) ~k:j in
        let add_idx = Prng.sample_distinct rng ~n:(Array.length nonneighbors) ~k:j in
        Array.iter (fun i -> Graph.remove_edge g !v neigh.(i)) drop_idx;
        Array.iter (fun i -> Graph.add_edge g !v nonneighbors.(i)) add_idx;
        let after = Usage_cost.vertex_cost ws Usage_cost.Max g !v in
        Array.iter (fun i -> Graph.remove_edge g !v nonneighbors.(i)) add_idx;
        Array.iter (fun i -> Graph.add_edge g !v neigh.(i)) drop_idx;
        if after < base then stable := false
      end;
      incr t
    done;
    incr v
  done;
  !stable

let eccentricity_spread g =
  Metrics.eccentricities g
  |> Option.map (fun ecc ->
         let lo = Array.fold_left min ecc.(0) ecc in
         let hi = Array.fold_left max ecc.(0) ecc in
         hi - lo)

let lemma3_holds g =
  let n = Graph.n g in
  List.for_all
    (fun v ->
      let label, count = Components.components_without g v in
      (* distance-1 test is adjacency to v; a component is "far" if it has
         a vertex not adjacent to v *)
      let far = Array.make count false in
      for w = 0 to n - 1 do
        if w <> v && not (Graph.mem_edge g v w) then far.(label.(w)) <- true
      done;
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 far <= 1)
    (Components.cut_vertices g)
