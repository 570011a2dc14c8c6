(* Shard spans cover one sequential [run_shard] range each (a pooled run
   records one per chunk), so [census.shard.calls] doubles as the shard
   count of the last run. Canonical hits are equilibria whose isomorphism
   class was already represented inside the shard or by a lower shard. *)
let m_shard = Telemetry.span "census.shard"

let m_trees = Telemetry.counter "census.trees_classified"

let m_canon_hits = Telemetry.counter "census.canon_hits"

let m_canon_misses = Telemetry.counter "census.canon_misses"

type tree_census = {
  n : int;
  total : int;
  equilibria : int;
  stars : int;
  double_stars : int;
  max_eq_diameter : int;
  witnesses_verified : int;
}

let empty_tree_census n =
  {
    n;
    total = 0;
    equilibria = 0;
    stars = 0;
    double_stars = 0;
    max_eq_diameter = 0;
    witnesses_verified = 0;
  }

(* Folds one tree into the shard's census: equilibria are tallied by
   shape, every other tree must yield a verified improving witness. *)
let classify_tree game c g =
  let c = { c with total = c.total + 1 } in
  let record_eq () =
    (* the shape classification is cheap; cross-validate every accepted
       tree against the generic checker so the census is fully verified *)
    assert (Equilibrium.is_equilibrium game g);
    let d = match Metrics.diameter g with Some d -> d | None -> assert false in
    let count p = if p g then 1 else 0 in
    {
      c with
      equilibria = c.equilibria + 1;
      stars = c.stars + count Tree_eq.is_star;
      double_stars = c.double_stars + count Tree_eq.is_double_star;
      max_eq_diameter = max c.max_eq_diameter d;
    }
  in
  let witnessed () = { c with witnesses_verified = c.witnesses_verified + 1 } in
  Telemetry.incr m_trees;
  match game with
  | Game.Sum ->
    if Tree_eq.is_star g then record_eq ()
    else begin
      (* Theorem 1 witness: verified-improving swap on every non-star *)
      match Tree_eq.theorem1_witness g with
      | Some _ -> witnessed ()
      | None ->
        (* diameter <= 2 tree that is not a star: impossible *)
        assert false
    end
  | Game.Max ->
    if Tree_eq.max_eq_tree g then record_eq ()
    else begin
      match Tree_eq.theorem4_witness g with
      | Some _ -> witnessed ()
      | None ->
        (* diameter <= 3 non-equilibrium: confirm with the generic
           checker that an improving move indeed exists *)
        assert (not (Equilibrium.is_max_equilibrium g));
        witnessed ()
    end
  | Game.Alpha _ ->
    (* no closed-form shape theorem for the α-game: the generic checker
       is both the classifier and, on non-equilibria, the witness (it
       exhibits the improving Buy/Sell/Swap_owned move) *)
    if Equilibrium.is_equilibrium game g then record_eq () else witnessed ()

let merge_tree_census a b =
  if a.n <> b.n then invalid_arg "Census.merge_tree_census: different n";
  {
    n = a.n;
    total = a.total + b.total;
    equilibria = a.equilibria + b.equilibria;
    stars = a.stars + b.stars;
    double_stars = a.double_stars + b.double_stars;
    max_eq_diameter = max a.max_eq_diameter b.max_eq_diameter;
    witnesses_verified = a.witnesses_verified + b.witnesses_verified;
  }

type graph_census = {
  n : int;
  connected : int;
  equilibria_labeled : int;
  equilibria_iso : Graph.t list;
  diameter_histogram : (int * int) list;
  max_diameter : int;
}

let graph_census_of n ~connected ~labeled iso =
  let diams =
    List.map
      (fun g -> match Metrics.diameter g with Some d -> d | None -> assert false)
      iso
  in
  {
    n;
    connected;
    equilibria_labeled = labeled;
    equilibria_iso = iso;
    diameter_histogram = Stats.histogram (Array.of_list diams);
    max_diameter = List.fold_left max 0 diams;
  }

(* Atlas key for one labeled graph's equilibrium verdict. The verdict is
   per labeled graph (graph6), not per isomorphism class, so a probe can
   never change which representative a shard reports first. *)
let atlas_key game g = "eq:" ^ Game.to_string game ^ ":" ^ Graph6.encode g

(* Consult-then-populate: a hit short-circuits the equilibrium scan, a
   miss computes and appends. Identical verdicts either way, so census
   outputs are byte-identical with the atlas on or off. *)
let is_equilibrium_via ?atlas game g =
  match atlas with
  | None -> Equilibrium.is_equilibrium game g
  | Some a -> (
      let key = atlas_key game g in
      match Atlas.find a key with
      | Some v -> v = "1"
      | None ->
          let r = Equilibrium.is_equilibrium game g in
          Atlas.add a ~key ~value:(if r then "1" else "0");
          r)

(* One rank-range shard of the connected-graph sweep: counts plus the
   first representative of each isomorphism class in mask order. *)
let rank_census_in ?atlas game n ~lo ~hi =
  let connected = ref 0 in
  let labeled = ref 0 in
  let seen = Hashtbl.create 64 in
  let reps = ref [] in
  Enumerate.connected_graphs_in n ~lo ~hi (fun g ->
      incr connected;
      if is_equilibrium_via ?atlas game g then begin
        incr labeled;
        let key = Canon.canonical_form g in
        if Hashtbl.mem seen key then Telemetry.incr m_canon_hits
        else begin
          Telemetry.incr m_canon_misses;
          Hashtbl.add seen key ();
          reps := g :: !reps
        end
      end);
  graph_census_of n ~connected:!connected ~labeled:!labeled (List.rev !reps)

let merge_graph_census a b =
  (* first-seen-wins per class: [a] is the lower-mask shard, so keeping
     its representatives and appending [b]'s new classes reproduces the
     single-sweep choice exactly. Classes found independently in both
     shards are canonical hits resolved here rather than inside a shard. *)
  if a.n <> b.n then invalid_arg "Census.merge_graph_census: different n";
  let seen = Hashtbl.create 64 in
  List.iter
    (fun g -> Hashtbl.replace seen (Canon.canonical_form g) ())
    a.equilibria_iso;
  let fresh =
    List.filter
      (fun g -> not (Hashtbl.mem seen (Canon.canonical_form g)))
      b.equilibria_iso
  in
  Telemetry.add m_canon_hits
    (List.length b.equilibria_iso - List.length fresh);
  graph_census_of a.n
    ~connected:(a.connected + b.connected)
    ~labeled:(a.equilibria_labeled + b.equilibria_labeled)
    (a.equilibria_iso @ fresh)

(* --- orderly census -------------------------------------------------------

   Same outputs as the rank-range graph census, produced from one
   canonical representative per isomorphism class instead of 2^(n(n-1)/2)
   labeled copies: labeled counts come from orbit-stabilizer
   (n!/|Aut| copies per class, summed), and the reported representative
   of each equilibrium class is the minimum-mask labeling — exactly the
   copy the mask sweep sees first. The record is therefore byte-identical
   to the rank-range one wherever both can run, while the class walk
   reaches n = 11 where the mask space is 2^55. *)

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let orderly_census_in ?atlas game n ~lo ~hi =
  let connected = ref 0 in
  let labeled = ref 0 in
  let reps = ref [] in
  let copies_of_class = factorial n in
  Orderly.iter ~lo ~hi n (fun g cert ->
      let copies = copies_of_class / cert.Canon.aut_count in
      connected := !connected + copies;
      if is_equilibrium_via ?atlas game g then begin
        labeled := !labeled + copies;
        let rep = Orderly.representative g cert in
        reps := (Orderly.mask_of_graph rep, rep) :: !reps
      end);
  (* ascending mask order = the order the legacy sweep first sees each
     class; shards cover disjoint class sets, so merges stay sorted *)
  let reps = List.sort (fun (a, _) (b, _) -> compare a b) !reps in
  graph_census_of n ~connected:!connected ~labeled:!labeled (List.map snd reps)

let merge_orderly_census a b =
  if a.n <> b.n then invalid_arg "Census.merge_orderly_census: different n";
  (* disjoint sorted class lists: a plain merge by mask key keeps the
     whole list in legacy first-seen order whatever the merge order of
     adjacent shards, with no canonical form recomputed *)
  let key = Orderly.mask_of_graph in
  let rec merge xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | x :: xt, y :: yt ->
      if key x <= key y then x :: merge xt ys else y :: merge xs yt
  in
  graph_census_of a.n
    ~connected:(a.connected + b.connected)
    ~labeled:(a.equilibria_labeled + b.equilibria_labeled)
    (merge a.equilibria_iso b.equilibria_iso)

(* --- unified shard API ---------------------------------------------------- *)

type kind = Trees | Graphs | Orderly

type shard = {
  kind : kind;
  game : Game.t;
  n : int;
  lo : int;
  hi : int;
}

type result =
  | Tree_result of tree_census
  | Graph_result of graph_census
  | Orderly_result of graph_census

let kind_name = function
  | Trees -> "trees"
  | Graphs -> "graphs"
  | Orderly -> "orderly"

let kind_of_name = function
  | "trees" -> Some Trees
  | "graphs" -> Some Graphs
  | "orderly" -> Some Orderly
  | _ -> None

let result_kind = function
  | Tree_result _ -> Trees
  | Graph_result _ -> Graphs
  | Orderly_result _ -> Orderly

let max_shard_vertices = function
  | Trees -> Enumerate.max_tree_vertices
  | Graphs -> Enumerate.max_graph_vertices
  | Orderly -> Orderly.max_vertices

let shard_space kind n =
  match kind with
  | Trees -> Enumerate.count_trees n
  | Graphs -> Enumerate.graph_mask_count n
  | Orderly -> Orderly.space n

let validate_shard s =
  let max_n = max_shard_vertices s.kind in
  (* orbit-stabilizer counting scales one verdict per class by n!/|Aut|,
     which is sound only when the verdict is isomorphism-invariant. The
     α-game's is not: edge ownership (default: the smaller endpoint) is
     labeling-dependent, so two copies of one class can disagree. *)
  if s.kind = Orderly && not (Game.is_basic s.game) then
    Error
      (Printf.sprintf
         "orderly census requires an isomorphism-invariant game (sum or \
          max), got %s"
         (Game.to_string s.game))
  else if s.n < 1 || s.n > max_n then
    Error
      (Printf.sprintf "census n must be in [1, %d] for kind %s, got %d" max_n
         (kind_name s.kind) s.n)
  else begin
    let space = shard_space s.kind s.n in
    if s.lo < 0 || s.hi > space || s.lo > s.hi then
      Error
        (Printf.sprintf "shard range must satisfy 0 <= lo <= hi <= %d" space)
    else Ok ()
  end

let full_shard kind game n =
  if n < 1 || n > max_shard_vertices kind then
    invalid_arg
      (Printf.sprintf "Census.full_shard: n must be in [1, %d] for kind %s"
         (max_shard_vertices kind) (kind_name kind));
  { kind; game; n; lo = 0; hi = shard_space kind n }

(* orderly generation wherever validate_shard allows it: same record, far
   faster, and it reaches n = 11 *)
let graph_kind game = if Game.is_basic game then Orderly else Graphs

let split s ~parts =
  if parts < 1 then invalid_arg "Census.split: parts must be >= 1";
  let width = s.hi - s.lo in
  if width = 0 then [ s ]
  else begin
    let k = min parts width in
    List.init k (fun i ->
        { s with lo = s.lo + (i * width / k); hi = s.lo + ((i + 1) * width / k) })
  end

let merge_result a b =
  match (a, b) with
  | Tree_result a, Tree_result b -> Tree_result (merge_tree_census a b)
  | Graph_result a, Graph_result b -> Graph_result (merge_graph_census a b)
  | Orderly_result a, Orderly_result b ->
    Orderly_result (merge_orderly_census a b)
  | _ -> invalid_arg "Census.merge_result: mixed census kinds"

(* One validated range, classified sequentially. *)
let classify ?atlas s =
  match s.kind with
  | Trees ->
    (* trees ignore the atlas: the shape classification + closed-form
       witnesses are cheaper than an index probe per tree *)
    let c = ref (empty_tree_census s.n) in
    Enumerate.trees_in s.n ~lo:s.lo ~hi:s.hi (fun g ->
        c := classify_tree s.game !c g);
    Tree_result !c
  | Graphs -> Graph_result (rank_census_in ?atlas s.game s.n ~lo:s.lo ~hi:s.hi)
  | Orderly ->
    Orderly_result (orderly_census_in ?atlas s.game s.n ~lo:s.lo ~hi:s.hi)

let rec run_shard ?atlas ?pool s =
  (match validate_shard s with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Census.run_shard: " ^ msg));
  match pool with
  | Some pool when Pool.jobs pool > 1 ->
    (* each chunk re-seeds its own odometer / mask / root cursor, so
       chunks are independent, and fold_chunks merges them in ascending
       rank order — the order every merge assumes. The atlas handle is
       domain-safe: the index is sharded under mutexes and appends
       funnel through its single appender. *)
    Pool.fold_chunks pool ~n:(s.hi - s.lo)
      ~fold:(fun ~lo ~hi ->
        run_shard ?atlas { s with lo = s.lo + lo; hi = s.lo + hi })
      ~reduce:merge_result
      ~zero:(classify { s with hi = s.lo })
  | _ ->
    let t0 = Telemetry.start () in
    let r = classify ?atlas s in
    Telemetry.stop m_shard t0;
    r

let tree_census ?pool game n =
  match run_shard ?pool (full_shard Trees game n) with
  | Tree_result c -> c
  | Graph_result _ | Orderly_result _ -> assert false

let graph_census ?atlas ?pool game n =
  match run_shard ?atlas ?pool (full_shard Graphs game n) with
  | Graph_result c -> c
  | Tree_result _ | Orderly_result _ -> assert false

let orderly_census ?atlas ?pool game n =
  match run_shard ?atlas ?pool (full_shard Orderly game n) with
  | Orderly_result c -> c
  | Tree_result _ | Graph_result _ -> assert false

let game_census ?atlas ?pool game n =
  match run_shard ?atlas ?pool (full_shard (graph_kind game) game n) with
  | Graph_result c | Orderly_result c -> c
  | Tree_result _ -> assert false
