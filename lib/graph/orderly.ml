(* Canonical-construction-path (McKay orderly) enumeration of connected
   graphs, one isomorphism class each, no dedup table.

   Generation tree: the root is K1; a node on k vertices is extended by
   attaching a fresh vertex [k] to every nonempty subset of [0..k-1],
   one subset per Aut(parent)-orbit. A child survives only if undoing
   the augmentation is the CANONICAL deletion: the canonical position q
   of the child is the highest one whose removal keeps the canonical
   copy connected, and the child is kept iff the fresh vertex lies in
   the automorphism orbit of the vertex at q ([Canon.cert] hands us that
   orbit as [position_vertices.(q)]). Each isomorphism class therefore
   has exactly one accepted construction path, so every connected class
   on every level appears exactly once and stays connected throughout
   (the deleted vertex is never a cut vertex). *)

let max_vertices = 11

(* Connected graphs up to isomorphism (OEIS A001349), indexed by n. The
   census rank space is the class count at [base_level]; the tail of the
   table is test oracle + documentation of where 63-bit labeled counts
   (A001187, via n!/|Aut| summation) stay exact: n = 11 is the last level
   below the overflow line, hence [max_vertices]. *)
let class_counts =
  [| 1; 1; 1; 2; 6; 21; 112; 853; 11117; 261080; 11716571; 1006700565 |]

(* Shards are subtrees of the generation tree rooted at the canonical
   graphs of this level: 112 roots at level 6 gives the dispatcher
   useful granularity without the rank space depending on enumeration. *)
let base_level n = min n 6

let space n =
  if n < 1 || n > max_vertices then invalid_arg "Orderly.space";
  class_counts.(base_level n)

let m_generated = Telemetry.counter "census.orderly.generated"

let m_rejected = Telemetry.counter "census.orderly.rejected"

let m_extensions = Telemetry.counter "census.orderly.extensions"

(* Parent groups beyond this order are not materialized; the extension
   step falls back to deduplicating accepted children by canonical form,
   which picks the same orbit-minimum subset (see [extend]). *)
let aut_list_cap = 720

let apply_mask sigma mask =
  let out = ref 0 in
  let m = ref mask in
  let i = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then out := !out lor (1 lsl sigma.(!i));
    m := !m lsr 1;
    incr i
  done;
  !out

(* child = parent plus vertex [k] adjacent to the set bits of [mask] *)
let child_of parent k mask =
  let h = Graph.create (k + 1) in
  Graph.iter_edges (fun u v -> Graph.add_edge h u v) parent;
  for u = 0 to k - 1 do
    if mask land (1 lsl u) <> 0 then Graph.add_edge h u k
  done;
  h

(* canonical deletion position: the highest canonical position whose
   vertex is not a cut vertex. Non-cutness of a position is a property
   of the canonical copy, so the choice is isomorphism-invariant; a
   connected graph on >= 2 vertices always has one. *)
let canonical_deletion_orbit h (cert : Canon.cert) =
  let size = Graph.n h in
  let rec find q =
    if q < 0 then assert false
    else begin
      let v = cert.Canon.perm.(q) in
      let _, count = Components.components_without h v in
      if count <= 1 then cert.Canon.position_vertices.(q) else find (q - 1)
    end
  in
  find (size - 1)

let accepts h cert =
  let k = Graph.n h - 1 in
  canonical_deletion_orbit h cert land (1 lsl k) <> 0

(* Extend [g] (with its certificate) from [k = Graph.n g] vertices up to
   [target], depth-first, calling [f] on every accepted graph at level
   [target]. Subset masks are tried in ascending order and only as their
   Aut(parent)-orbit minimum, so the representative labeling and the
   emission order are deterministic. When the parent group exceeds
   [aut_list_cap] we instead try every mask and deduplicate the accepted
   children by canonical form: acceptance is constant on a subset orbit
   and accepted children of one parent from distinct orbits are never
   isomorphic, so the first accepted mask of each class is again the
   orbit minimum — the two paths emit identical graphs in identical
   order. *)
let rec extend g cert target f =
  let k = Graph.n g in
  if k = target then f g cert
  else begin
    let auts = Canon.automorphisms_capped ~cap:aut_list_cap g in
    let orbit_min =
      match auts with
      | Some sigmas ->
        fun mask -> List.for_all (fun s -> apply_mask s mask >= mask) sigmas
      | None -> fun _ -> true
    in
    let seen_fallback =
      match auts with None -> Some (Hashtbl.create 16) | Some _ -> None
    in
    for mask = 1 to (1 lsl k) - 1 do
      if orbit_min mask then begin
        Telemetry.incr m_extensions;
        let h = child_of g k mask in
        let child_cert = Canon.cert h in
        (* fallback dedup runs on ACCEPTED children only: isomorphic
           children of one parent built from distinct subset orbits get
           different acceptance verdicts, so a rejected early copy must
           not shadow the accepted one *)
        let fresh () =
          match seen_fallback with
          | None -> true
          | Some tbl ->
            if Hashtbl.mem tbl child_cert.Canon.form then false
            else begin
              Hashtbl.add tbl child_cert.Canon.form ();
              true
            end
        in
        if accepts h child_cert && fresh () then begin
          Telemetry.incr m_generated;
          extend h child_cert target f
        end
        else Telemetry.incr m_rejected
      end
    done
  end

let iter ?(lo = 0) ?hi n f =
  if n < 1 || n > max_vertices then invalid_arg "Orderly.iter";
  let total = space n in
  let hi = Option.value ~default:total hi in
  if lo < 0 || hi > total || lo > hi then invalid_arg "Orderly.iter";
  let k1 = Graph.create 1 in
  let k1_cert = Canon.cert k1 in
  let b = base_level n in
  let idx = ref 0 in
  extend k1 k1_cert b (fun g cert ->
      let i = !idx in
      incr idx;
      if i >= lo && i < hi then
        if b = n then f g cert else extend g cert n f);
  assert (!idx = total)

let count ?lo ?hi n =
  let c = ref 0 in
  iter ?lo ?hi n (fun _ _ -> incr c);
  !c

(* --- legacy-compatible representatives ---------------------------------- *)

(* The rank-range census reports, per equilibrium class, the FIRST
   labeled copy in edge-subset-mask order — i.e. the labeling with the
   minimum column-major mask integer. Mask-minimality and the
   lex-minimal canonical string disagree (the string weighs pair (0,1)
   heaviest, the mask weighs it lightest), so byte-identity with the
   legacy output needs a second minimization. It runs on every
   equilibrium class (374 of 853 at sum n = 7, 4161 at n = 8), but only
   up to [min_mask_vertices]: past that the canonical copy stays the
   representative, so n = 10–11 output keeps the labeling it has always
   had (there is no legacy output to match beyond the rank-range cap
   anyway). *)

let min_mask_vertices = 9

let pair_index u v = (v * (v - 1) / 2) + u

let mask_of_graph g =
  Graph.fold_edges (fun acc u v -> acc lor (1 lsl pair_index u v)) 0 g

let graph_of_mask n mask =
  let g = Graph.create n in
  for v = 1 to n - 1 do
    for u = 0 to v - 1 do
      if mask land (1 lsl pair_index u v) <> 0 then Graph.add_edge g u v
    done
  done;
  g

let popcount x =
  let rec go x c = if x = 0 then c else go (x land (x - 1)) (c + 1) in
  go x 0

(* Branch and bound over positions n-1 down to 0. Column v of the mask
   (bits v(v-1)/2 .. v(v-1)/2 + v - 1) outweighs every lower column, so
   the vertex at v and its column are settled before anything below v.

   The free vertices form [cells]: vertex bitmasks, each owning a
   contiguous range of positions, listed from the highest range down, so
   the top cell owns v. A candidate y's column is smallest exactly when
   N(y) takes the lowest positions of every cell, so its value depends
   only on |N(y) ∩ cell| per cell, and every labeling that keeps it
   smallest splits each cell into non-neighbours (higher positions) and
   neighbours (lower). Only candidates tying the minimum column are
   branched on, one per twin class — swapping twins y, y' (N(y) \ {y'} =
   N(y') \ {y}) is an automorphism fixing every placed vertex and every
   cell — and a branch is cut once its fixed columns exceed the
   incumbent's. *)
let min_mask_graph g =
  let n = Graph.n g in
  if n > min_mask_vertices then invalid_arg "Orderly.min_mask_graph";
  let adj = Array.init n (Graph.fold_neighbors (fun m w -> m lor (1 lsl w)) 0 g) in
  let twins y y' = adj.(y) land lnot (1 lsl y') = adj.(y') land lnot (1 lsl y) in
  let best = ref max_int in
  (* the column of [y] placed at [hi] above [cells] (the top one without y) *)
  let rec column hi y = function
    | [] -> 0
    | c :: cells ->
      let lo = hi - popcount c in
      (((1 lsl popcount (adj.(y) land c)) - 1) lsl lo) lor column lo y cells
  in
  let split nb cells =
    List.concat_map
      (fun c -> List.filter (fun c -> c <> 0) [ c land lnot nb; c land nb ])
      cells
  in
  let rec place v cells acc =
    (* the bound below keeps acc <= !best on every path that gets here *)
    if v <= 0 then best := acc
    else
      match cells with
      | [] -> assert false
      | top :: rest ->
        let shift = v * (v - 1) / 2 in
        let candidates =
          List.filter_map
            (fun y ->
              if top land (1 lsl y) = 0 then None
              else
                let below = (top land lnot (1 lsl y)) :: rest in
                Some (y, column v y below, below))
            (List.init n Fun.id)
        in
        let least = List.fold_left (fun m (_, col, _) -> Int.min m col) max_int candidates in
        let acc = acc lor (least lsl shift) in
        let tried = ref [] in
        List.iter
          (fun (y, col, below) ->
            if
              col = least
              && (not (List.exists (twins y) !tried))
              && acc lsr shift <= !best lsr shift
            then begin
              tried := y :: !tried;
              place (v - 1) (split adj.(y) below) acc
            end)
          candidates
  in
  place (n - 1) [ (1 lsl n) - 1 ] 0;
  graph_of_mask n !best

let canonical_copy (cert : Canon.cert) =
  let n = Array.length cert.Canon.perm in
  let g = Graph.create n in
  let body =
    (* form is "<n>:<bits>"; bits are column-major over positions *)
    let s = cert.Canon.form in
    String.sub s (String.index s ':' + 1) (n * (n - 1) / 2)
  in
  for v = 1 to n - 1 do
    for u = 0 to v - 1 do
      if body.[pair_index u v] = '1' then Graph.add_edge g u v
    done
  done;
  g

let representative g cert =
  if Graph.n g <= min_mask_vertices then min_mask_graph g
  else canonical_copy cert
