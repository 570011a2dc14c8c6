let max_search_vertices = 16

(* --- color refinement ----------------------------------------------- *)

(* Each round ranks the vertices by (color, sorted neighbour colors).
   The neighbour ids sit in a CSR. A round writes each vertex's
   neighbour colors into its slice, visiting the neighbours in [order],
   which is sorted by color, so every slice comes out sorted. It then
   insertion-sorts [order] by (color, slice), which moves vertices only
   within their color class, and hands out dense ranks along it.
   Starting from one class, round 0 ranks by degree: the all-zero
   slices order by length. *)
let refine g =
  let n = Graph.n g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let nbr = Array.make off.(n) 0 and slot = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    for i = 0 to Graph.degree g v - 1 do
      nbr.(off.(v) + i) <- Graph.nth_neighbor g v i
    done
  done;
  let color = Array.make n 0 and next = Array.make n 0 and fill = Array.make n 0 in
  let order = Array.init n Fun.id in
  (* by color, then by slice, lexicographically, a prefix first *)
  let cmp u v =
    if color.(u) <> color.(v) then color.(u) - color.(v)
    else begin
      let i = ref off.(u) and j = ref off.(v) in
      while !i < off.(u + 1) && !j < off.(v + 1) && slot.(!i) = slot.(!j) do
        incr i;
        incr j
      done;
      if !i < off.(u + 1) && !j < off.(v + 1) then slot.(!i) - slot.(!j)
      else off.(u + 1) - !i - (off.(v + 1) - !j)
    end
  in
  let classes = ref 1 and grew = ref true in
  while !grew do
    Array.blit off 0 fill 0 n;
    for p = 0 to n - 1 do
      let w = order.(p) in
      for i = off.(w) to off.(w + 1) - 1 do
        let v = nbr.(i) in
        slot.(fill.(v)) <- color.(w);
        fill.(v) <- fill.(v) + 1
      done
    done;
    for p = 1 to n - 1 do
      let v = order.(p) and q = ref p in
      while !q > 0 && cmp order.(!q - 1) v > 0 do
        order.(!q) <- order.(!q - 1);
        decr q
      done;
      order.(!q) <- v
    done;
    let rank = ref 0 in
    for p = 0 to n - 1 do
      if p > 0 && cmp order.(p - 1) order.(p) <> 0 then incr rank;
      next.(order.(p)) <- !rank
    done;
    (* a round only splits classes, so an unchanged count is a fixpoint,
       and there [next] = [color] *)
    grew := !rank + 1 > !classes;
    if !grew then begin
      Array.blit next 0 color 0 n;
      classes := !rank + 1
    end
  done;
  color

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
    let adj = Graph.masks g in
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
