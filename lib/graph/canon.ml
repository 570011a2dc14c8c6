let max_search_vertices = 16

(* --- color refinement ----------------------------------------------- *)

let refine g =
  let n = Graph.n g in
  let color = Array.make n 0 in
  (* initial color: degree *)
  for v = 0 to n - 1 do
    color.(v) <- Graph.degree g v
  done;
  let dense c =
    (* remap colors to 0..k-1, ordered by their signature so the result is
       label-independent *)
    let sorted = Array.copy c in
    Array.sort compare sorted;
    let tbl = Hashtbl.create n in
    let next = ref 0 in
    Array.iter
      (fun x ->
        if not (Hashtbl.mem tbl x) then begin
          Hashtbl.add tbl x !next;
          incr next
        end)
      sorted;
    Array.map (Hashtbl.find tbl) c, !next
  in
  let color, k0 = dense color in
  let color = ref color and k = ref k0 in
  let stable = ref false in
  while not !stable do
    let signature v =
      let neigh = Graph.fold_neighbors (fun acc w -> !color.(w) :: acc) [] g v in
      (!color.(v), List.sort compare neigh)
    in
    let sigs = Array.init n signature in
    (* hash-cons signatures into new dense colors, ordered by signature *)
    let distinct = Hashtbl.create n in
    Array.iter (fun s -> if not (Hashtbl.mem distinct s) then Hashtbl.add distinct s ()) sigs;
    let keys = Hashtbl.fold (fun s () acc -> s :: acc) distinct [] in
    let keys = List.sort compare keys in
    let rank = Hashtbl.create n in
    List.iteri (fun i s -> Hashtbl.add rank s i) keys;
    let next = Array.map (Hashtbl.find rank) sigs in
    let k' = List.length keys in
    if k' = !k then stable := true
    else begin
      color := next;
      k := k'
    end
  done;
  !color

(* --- the search ---------------------------------------------------------- *)

let check_cap g =
  if Graph.n g > max_search_vertices then
    invalid_arg "Canon: graph exceeds max_search_vertices"

type cert = {
  form : string;
  perm : int array;
  aut_count : int;
  position_vertices : int array;
  generators : int array list;
}

let m_nodes = Telemetry.counter "canon.nodes"

(* the orbit of [v] under the group generated by [gens], as a bitmask *)
let orbit gens v =
  let rec visit mask x =
    List.fold_left
      (fun mask sigma ->
        let y = sigma.(x) in
        if mask land (1 lsl y) <> 0 then mask else visit (mask lor (1 lsl y)) y)
      mask gens
  in
  visit (1 lsl v) v

(* string order of two columns: the lowest differing bit decides, and a
   clear bit ('0') is the smaller *)
let compare_columns a b =
  let d = a lxor b in
  if d = 0 then 0 else if a land d land -d = 0 then -1 else 1

(* The canonical form is the lexicographically least adjacency bitstring
   over all color-class-respecting vertex orders. Bits are column-major
   (x_{0,1}; x_{0,2}, x_{1,2}; x_{0,3}, ...), so placing the vertex at
   position [v] fixes exactly column [v], held as an int whose bit [j]
   says "adjacent to the vertex at position [j]". Candidates are tried
   in ascending order and a branch is cut once its prefix exceeds the
   incumbent's, so [perm] is the first optimal leaf in candidate order.

   A leaf that ties the incumbent yields the automorphism σ with
   σ(best_perm.(p)) = perm.(p); it fixes the prefix the two leaves
   share. The search keeps σ and prunes with it twice, each time
   skipping only the image of a subtree already searched, which holds
   no optimal leaf earlier than its preimage — so [perm] is unchanged:
   - it returns to the depth where the leaf left the incumbent's path;
   - at every node it skips a candidate in the orbit of a tried sibling
     under the kept automorphisms that fix the node's prefix.
   After [perm] is found, each node on its path tries the rest of the
   stabilizer orbit of [perm]'s own child: every such candidate either
   reaches a tying leaf, whose σ joins it to that orbit, or is skipped
   as the image of a sibling already joined. So at every depth the kept
   automorphisms fixing [perm]'s prefix have the full stabilizer's
   orbit: |Aut| is the product of those orbit sizes (orbit–stabilizer),
   and the kept set generates Aut. *)
let cert g =
  check_cap g;
  let n = Graph.n g in
  if n = 0 then { form = ""; perm = [||]; aut_count = 1; position_vertices = [||]; generators = [] }
  else begin
    let adj = Array.init n (Graph.fold_neighbors (fun m w -> m lor (1 lsl w)) 0 g) in
    (* [cells.(p)]: the color class position p draws from. Position p gets
       the p-th smallest color, so the classes (colors lie in [0, n)) take
       consecutive positions in color order. *)
    let cells = Array.make n 0 in
    let classes = Array.make n 0 in
    Array.iteri (fun x c -> classes.(c) <- classes.(c) lor (1 lsl x)) (refine g);
    let p = ref 0 in
    Array.iter
      (fun cls ->
        for _ = 1 to Bitset.popcount cls do
          cells.(!p) <- cls;
          incr p
        done)
      classes;
    (* [col.(x)]: the column vertex [x] would get at the current depth *)
    let col = Array.make n 0 in
    let perm = Array.make n (-1) and column = Array.make n 0 in
    let best_perm = Array.make n (-1) and best = Array.make n 0 in
    let have_best = ref false in
    (* kept automorphisms, each with the mask of the vertices it fixes *)
    let gens = ref [] in
    let fixing placed =
      List.filter_map (fun (s, fixed) -> if fixed land placed = placed then Some s else None) !gens
    in
    (* a tying leaf sets this to the depth the search returns to *)
    let unwind = ref n and nodes = ref 0 in
    let toggle v x =
      let m = ref adj.(x) and w = ref 0 in
      while !m <> 0 do
        if !m land 1 <> 0 then col.(!w) <- col.(!w) lxor (1 lsl v);
        m := !m lsr 1;
        incr w
      done
    in
    (* [go v placed lt] places positions v.. with [lt] = "the prefix is
       strictly below the incumbent's". Returns true when the subtree
       replaced the incumbent — the caller's prefix then equals the new
       incumbent's, so its own [lt] resets. *)
    let rec go v placed lt =
      incr nodes;
      if v = n then begin
        if lt || not !have_best then begin
          Array.blit perm 0 best_perm 0 n;
          Array.blit column 0 best 0 n;
          have_best := true;
          true
        end
        else begin
          let sigma = Array.make n 0 and fixed = ref 0 in
          Array.iteri (fun p w -> sigma.(w) <- perm.(p)) best_perm;
          Array.iteri (fun w x -> if w = x then fixed := !fixed lor (1 lsl w)) sigma;
          gens := (sigma, !fixed) :: !gens;
          let e = ref 0 in
          while perm.(!e) = best_perm.(!e) do
            incr e
          done;
          unwind := !e;
          false
        end
      end
      else begin
        let updated = ref false and lt = ref lt and tried = ref 0 in
        (* the unplaced vertices of position v's class, shifted down past x *)
        let free = ref (cells.(v) land lnot placed) and x = ref 0 in
        while !free <> 0 && !unwind > v do
          let c = !x in
          if !free land 1 <> 0 then begin
            let verdict =
              if !lt || not !have_best then -1 else compare_columns col.(c) best.(v)
            in
            if
              verdict <= 0
              && (match !gens with [] -> true | _ -> orbit (fixing placed) c land !tried = 0)
            then begin
              tried := !tried lor (1 lsl c);
              perm.(v) <- c;
              column.(v) <- col.(c);
              toggle v c;
              if go (v + 1) (placed lor (1 lsl c)) (!lt || verdict < 0) then begin
                lt := false;
                updated := true
              end;
              toggle v c;
              if !unwind = v then unwind := n
            end
          end;
          free := !free lsr 1;
          incr x
        done;
        !updated
      end
    in
    ignore (go 0 0 false);
    Telemetry.add m_nodes !nodes;
    let bits = Bytes.create (n * (n - 1) / 2) in
    for v = 1 to n - 1 do
      for j = 0 to v - 1 do
        Bytes.set bits ((v * (v - 1) / 2) + j) (if best.(v) land (1 lsl j) <> 0 then '1' else '0')
      done
    done;
    let aut_count = ref 1 and placed = ref 0 in
    Array.iter
      (fun v ->
        aut_count := !aut_count * Bitset.popcount (orbit (fixing !placed) v);
        placed := !placed lor (1 lsl v))
      best_perm;
    let generators = List.rev_map fst !gens in
    {
      form = string_of_int n ^ ":" ^ Bytes.unsafe_to_string bits;
      perm = best_perm;
      aut_count = !aut_count;
      position_vertices = Array.map (orbit generators) best_perm;
      generators;
    }
  end

let canonical_form g = (cert g).form

let isomorphic a b =
  Graph.n a = Graph.n b
  && Graph.m a = Graph.m b
  && Graph.degree_sequence a = Graph.degree_sequence b
  &&
  (* refined colors are label-independent, so the full histograms must
     match exactly *)
  Stats.histogram (refine a) = Stats.histogram (refine b)
  && canonical_form a = canonical_form b

let automorphism_count g = (cert g).aut_count

let orbits g =
  let c = cert g in
  let n = Array.length c.perm in
  let orbit = Array.make n 0 in
  Array.iteri (fun p v -> orbit.(v) <- c.position_vertices.(p)) c.perm;
  (* number the orbits by their least vertex *)
  let label = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) < 0 then begin
      for w = v to n - 1 do
        if orbit.(v) land (1 lsl w) <> 0 then label.(w) <- !next
      done;
      incr next
    end
  done;
  label

let is_vertex_transitive g =
  let n = Graph.n g in
  n <= 1
  ||
  let o = orbits g in
  Array.for_all (fun x -> x = o.(0)) o
