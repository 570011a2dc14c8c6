let max_search_vertices = 16

(* --- color refinement ----------------------------------------------- *)

(* Within a class: the first color class, lowest first, where the
   neighbour rows [ru] and [rv] have different counts decides, and more
   neighbours there sorts first. [members.(c)] holds the vertices of
   color c. *)
let rec by_counts members classes ru rv c =
  if c = classes then 0
  else begin
    let a = ru land members.(c) and b = rv land members.(c) in
    if a = b then by_counts members classes ru rv (c + 1)
    else begin
      let d = Bitset.popcount b - Bitset.popcount a in
      if d <> 0 then d else by_counts members classes ru rv (c + 1)
    end
  end

(* Round 0 ranks the vertices by degree: a degree's rank is the number
   of smaller degrees present. Every later round keeps the class order
   and splits each class by [by_counts]. This is the documented order:
   a class has one degree, since round 0 splits by degree and later
   rounds only split, so two sorted neighbour-color lists of one class
   have equal length, and the list with more entries of the first color
   where the counts differ is the smaller.

   [order] lists the vertices by color, so the classes are runs of it;
   a round insertion-sorts each run and hands out dense ranks along
   it. *)
let refine_masks rows =
  let n = Array.length rows in
  let color = Array.make n 0 and next = Array.make n 0 and order = Array.make n 0 in
  let members = Array.make n 0 in
  let degrees = ref 0 in
  for v = 0 to n - 1 do
    degrees := !degrees lor (1 lsl Bitset.popcount rows.(v))
  done;
  for v = 0 to n - 1 do
    color.(v) <- Bitset.popcount (!degrees land ((1 lsl Bitset.popcount rows.(v)) - 1));
    let q = ref v in
    while !q > 0 && color.(order.(!q - 1)) > color.(v) do
      order.(!q) <- order.(!q - 1);
      decr q
    done;
    order.(!q) <- v
  done;
  let classes = ref (Bitset.popcount !degrees) and grew = ref true in
  (* a round only splits classes, so one that leaves the count unchanged
     is a fixpoint; one class (all degrees equal) and n classes are too *)
  while !grew && !classes > 1 && !classes < n do
    let k = !classes in
    Array.fill members 0 k 0;
    for v = 0 to n - 1 do
      members.(color.(v)) <- members.(color.(v)) lor (1 lsl v)
    done;
    for p = 1 to n - 1 do
      let v = order.(p) and q = ref p in
      while
        !q > 0
        && color.(order.(!q - 1)) = color.(v)
        && by_counts members k rows.(order.(!q - 1)) rows.(v) 0 > 0
      do
        order.(!q) <- order.(!q - 1);
        decr q
      done;
      order.(!q) <- v
    done;
    let rank = ref 0 in
    next.(order.(0)) <- 0;
    for p = 1 to n - 1 do
      let u = order.(p - 1) and v = order.(p) in
      if color.(u) <> color.(v) || by_counts members k rows.(u) rows.(v) 0 <> 0 then incr rank;
      next.(v) <- !rank
    done;
    Array.blit next 0 color 0 n;
    classes := !rank + 1;
    grew := !classes > k
  done;
  color

let refine g = refine_masks (Graph.masks g)

(* --- the search ---------------------------------------------------------- *)

type cert = {
  form : string;
  perm : int array;
  aut_count : int;
  position_vertices : int array;
  generators : int array list;
}

let m_nodes = Telemetry.counter "canon.nodes"

(* [bit.(b mod 19)] is [i] for [b = 2^i] below the search cap: 2 has
   order 18 modulo the prime 19, so 2^0 ... 2^15 leave distinct residues *)
let bit =
  let t = Array.make 19 0 in
  for i = 0 to max_search_vertices - 1 do
    t.((1 lsl i) mod 19) <- i
  done;
  t

(* [acc] plus the images of [x] under the kept automorphisms (each with
   the mask of the vertices it fixes) that fix all of [placed] *)
let rec images gens placed x acc =
  match gens with
  | [] -> acc
  | (sigma, fixed) :: gens ->
    images gens placed x (if fixed land placed = placed then acc lor (1 lsl sigma.(x)) else acc)

(* the orbit of [v] under the group those automorphisms generate, as a
   bitmask: [todo] holds the vertices reached but not yet mapped *)
let orbit gens placed v =
  let rec grow orb todo =
    if todo = 0 then orb
    else begin
      let b = todo land -todo in
      let fresh = images gens placed bit.(b mod 19) 0 land lnot orb in
      grow (orb lor fresh) (todo lxor b lor fresh)
    end
  in
  grow (1 lsl v) (1 lsl v)

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
let cert_masks rows colors =
  let n = Array.length rows in
  if n > max_search_vertices then invalid_arg "Canon: graph exceeds max_search_vertices";
  if n = 0 then { form = ""; perm = [||]; aut_count = 1; position_vertices = [||]; generators = [] }
  else begin
    (* [cells.(p)]: the color class position p draws from. Position p gets
       the p-th smallest color, so the classes (colors lie in [0, n)) take
       consecutive positions in color order. *)
    let cells = Array.make n 0 in
    let classes = Array.make n 0 in
    Array.iteri (fun x c -> classes.(c) <- classes.(c) lor (1 lsl x)) colors;
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
    (* a tying leaf sets this to the depth the search returns to *)
    let unwind = ref n and nodes = ref 0 in
    let toggle v x =
      let m = ref rows.(x) in
      while !m <> 0 do
        let b = !m land - !m in
        let w = bit.(b mod 19) in
        col.(w) <- col.(w) lxor (1 lsl v);
        m := !m lxor b
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
        (* the unplaced vertices of position v's class, lowest first *)
        let free = ref (cells.(v) land lnot placed) in
        while !free <> 0 && !unwind > v do
          let b = !free land - !free in
          free := !free lxor b;
          let c = bit.(b mod 19) in
          let verdict = if !lt || not !have_best then -1 else compare_columns col.(c) best.(v) in
          if verdict <= 0 && (!tried = 0 || orbit !gens placed c land !tried = 0) then begin
            tried := !tried lor b;
            perm.(v) <- c;
            column.(v) <- col.(c);
            toggle v c;
            if go (v + 1) (placed lor b) (!lt || verdict < 0) then begin
              lt := false;
              updated := true
            end;
            toggle v c;
            if !unwind = v then unwind := n
          end
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
        aut_count := !aut_count * Bitset.popcount (orbit !gens !placed v);
        placed := !placed lor (1 lsl v))
      best_perm;
    {
      form = string_of_int n ^ ":" ^ Bytes.unsafe_to_string bits;
      perm = best_perm;
      aut_count = !aut_count;
      position_vertices = Array.map (orbit !gens 0) best_perm;
      generators = List.rev_map fst !gens;
    }
  end

let cert g =
  let rows = Graph.masks g in
  cert_masks rows (refine_masks rows)

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
