type move =
  | Swap of { actor : int; drop : int; add : int }
  | Delete of { actor : int; drop : int }

let actor = function Swap { actor; _ } | Delete { actor; _ } -> actor

let pp_move ppf = function
  | Swap { actor; drop; add } ->
    Format.fprintf ppf "%d: %d-%d -> %d-%d" actor actor drop actor add
  | Delete { actor; drop } -> Format.fprintf ppf "%d: delete %d-%d" actor actor drop

let move_to_string mv = Format.asprintf "%a" pp_move mv

let is_applicable g = function
  | Swap { actor; drop; add } ->
    actor <> drop && actor <> add && drop <> add
    && Graph.mem_edge g actor drop
    && not (Graph.mem_edge g actor add)
  | Delete { actor; drop } -> Graph.mem_edge g actor drop

let apply g mv =
  if not (is_applicable g mv) then
    invalid_arg ("Swap.apply: move not applicable: " ^ move_to_string mv);
  match mv with
  | Swap { actor; drop; add } ->
    Graph.remove_edge g actor drop;
    Graph.add_edge g actor add
  | Delete { actor; drop } -> Graph.remove_edge g actor drop

let undo g = function
  | Swap { actor; drop; add } ->
    Graph.remove_edge g actor add;
    Graph.add_edge g actor drop
  | Delete { actor; drop } -> Graph.add_edge g actor drop

let delta ws version g mv =
  let a = actor mv in
  let before = Usage_cost.vertex_cost ws version g a in
  apply g mv;
  let after = Usage_cost.vertex_cost ws version g a in
  undo g mv;
  after - before

let m_candidates = Telemetry.counter "swap.candidates"

let m_pruned = Telemetry.counter "swap.pruned"

let iter_moves ?(include_deletions = false) g v f =
  let n = Graph.n g in
  (* snapshot both the neighbor row and the non-neighbor set up front: the
     callback typically applies/undoes moves, which reorders the live
     adjacency rows mid-iteration. The bitset makes the membership test
     O(1) per candidate, so enumeration is O(deg·n) instead of O(deg²·n). *)
  let neighbors = Graph.neighbors g v in
  let adjacent = Bitset.create n in
  Array.iter (fun w -> Bitset.add adjacent w) neighbors;
  (* closed forms of what the loop below generates and what the bitset
     prunes, so the per-candidate path carries no instrumentation: per
     dropped edge there are n - 1 - deg swap targets and deg adjacent
     candidates rejected by the membership test. *)
  let deg = Array.length neighbors in
  Telemetry.add m_candidates
    ((deg * (n - 1 - deg)) + if include_deletions then deg else 0);
  Telemetry.add m_pruned (deg * deg);
  Array.iter
    (fun drop ->
      if include_deletions then f (Delete { actor = v; drop });
      for add = 0 to n - 1 do
        (* add = drop is already excluded: drop is adjacent *)
        if add <> v && not (Bitset.mem adjacent add) then
          f (Swap { actor = v; drop; add })
      done)
    neighbors

let best_move ws version g v =
  let best = ref None in
  iter_moves g v (fun mv ->
      let d = delta ws version g mv in
      if d < 0 then
        match !best with
        | Some (_, bd) when bd <= d -> ()
        | _ -> best := Some (mv, d));
  !best

exception Found of move * int

let first_improving_move ws version g v =
  try
    iter_moves g v (fun mv ->
        let d = delta ws version g mv in
        if d < 0 then raise (Found (mv, d)));
    None
  with Found (mv, d) -> Some (mv, d)

let random_improving_move rng ws version g v =
  (* reservoir sampling: the k-th improving move replaces the current pick
     with probability 1/k, yielding a uniform choice in one pass *)
  let pick = ref None in
  let seen = ref 0 in
  iter_moves g v (fun mv ->
      let d = delta ws version g mv in
      if d < 0 then begin
        incr seen;
        if Prng.int rng !seen = 0 then pick := Some (mv, d)
      end);
  !pick

let move_count g v =
  let deg = Graph.degree g v in
  deg * (Graph.n g - 1 - deg)
