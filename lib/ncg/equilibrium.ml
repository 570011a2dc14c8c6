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

(* First violating move of a single agent, in move-enumeration order.
   Both the sequential and the parallel checkers are built from this
   per-agent scan, so their witnesses coincide. Candidates are evaluated
   by the incremental engine: [Swap_eval.delta_below] returns the exact
   naive delta whenever it is below the cutoff and certifies the skip
   otherwise, so verdicts and witnesses are byte-identical to the
   apply/BFS/undo oracle. *)
let agent_violation_sum eng v =
  try
    Swap.iter_moves (Swap_eval.graph eng) v (fun mv ->
        match Swap_eval.delta_below eng Usage_cost.Sum mv ~cutoff:0 with
        | Some d -> raise (Witness (mv, d))
        | None -> ());
    None
  with Witness (mv, d) -> Some (mv, d)

let agent_violation_max eng v =
  try
    Swap.iter_moves ~include_deletions:true (Swap_eval.graph eng) v (fun mv ->
        (* equilibrium demands deletion *strictly increases* the actor's
           local diameter, so deletions violate already at delta = 0 *)
        let cutoff = match mv with Swap.Swap _ -> 0 | Swap.Delete _ -> 1 in
        match Swap_eval.delta_below eng Usage_cost.Max mv ~cutoff with
        | Some d -> raise (Witness (mv, d))
        | None -> ());
    None
  with Witness (mv, d) -> Some (mv, d)

(* Agents whose move lists were scanned, early exits taken, and — as a
   gauge — the actor index of the last violating move found. The span
   wraps the whole verdict including the connectivity pre-check. Note the
   parallel scan may probe a scheduling-dependent set of agents past the
   witness, so [agents_scanned] is exact only on the sequential path. *)
let m_agents = Telemetry.counter "equilibrium.agents_scanned"

let m_early_exits = Telemetry.counter "equilibrium.early_exits"

let m_violating_agent = Telemetry.gauge "equilibrium.violating_agent"

let m_check = Telemetry.span "equilibrium.check"

(* Fan the per-agent scans across the pool. The engine's bound fallback
   applies and undoes moves on the graph, so every domain works on its
   own [Graph.copy] behind its own engine; [Pool.parallel_find] keeps
   the lowest-agent witness, matching the sequential scan order. The
   sequential engine is shared across agents, so lazily computed
   distance rows amortise over the whole check. *)
let check_with ~agent_violation ?pool g =
  let t0 = Telemetry.start () in
  (* the connectivity pre-check reads vertex 0's row off the engine; on
     the sequential path the scan starts at agent 0, which wants exactly
     that row, so the check costs no extra BFS at all *)
  let eng = Swap_eval.create g in
  let verdict =
    if not (Swap_eval.connected eng) then Disconnected
    else begin
      let n = Graph.n g in
      let witness =
        match pool with
        | Some pool when Pool.jobs pool > 1 ->
          Pool.parallel_find pool ~n
            ~init:(fun () -> Swap_eval.create (Graph.copy g))
            (fun eng v ->
              Telemetry.incr m_agents;
              agent_violation eng v)
        | _ ->
          let rec scan v =
            if v >= n then None
            else begin
              Telemetry.incr m_agents;
              match agent_violation eng v with
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

let check ?pool game g =
  match game with
  | Game.Sum -> check_with ~agent_violation:agent_violation_sum ?pool g
  | Game.Max -> check_with ~agent_violation:agent_violation_max ?pool g
  | Game.Alpha a ->
    ignore pool;
    check_alpha_game (Alpha_game.create ~alpha:a g)

let is_equilibrium ?pool game g = check ?pool game g = Equilibrium

let violating_agents game g =
  let violates =
    match game with
    | Game.Sum ->
      let eng = Swap_eval.create g in
      fun v -> agent_violation_sum eng v <> None
    | Game.Max ->
      let eng = Swap_eval.create g in
      fun v -> agent_violation_max eng v <> None
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
