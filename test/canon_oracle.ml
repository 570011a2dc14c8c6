(* Test oracles for [Canon], sharing none of its code. *)

(* Oracle for [Canon.refine]: the same rounds over lists and hash
   tables. Each round conses and sorts every vertex's neighbour-color
   list, hash-conses the (color, list) signatures and ranks them by
   polymorphic compare. *)
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

(* Oracle for [Canon.cert]: the same lex-min search without
   automorphism pruning. It prunes only by the column compare, so it
   visits every one of a graph's |Aut| optimal leaves — fine for small or
   asymmetric graphs, hopeless for a 16-vertex star. Two labelings
   produce the same minimal string iff they differ by an automorphism,
   so the optimal-leaf count is |Aut(g)| and the vertex set at position
   [p] is the automorphism orbit of the vertex any optimal labeling puts
   at [p]. *)

type cert = {
  form : string;
  perm : int array;
  aut_count : int;
  position_vertices : int array;
}

let cert g =
  let n = Graph.n g in
  if n = 0 then
    { form = ""; perm = [||]; aut_count = 1; position_vertices = [||] }
  else begin
    let color = refine g in
    let target =
      let sorted = Array.copy color in
      Array.sort compare sorted;
      sorted
    in
    let total_bits = n * (n - 1) / 2 in
    let buf = Bytes.create total_bits in
    let best = ref (Bytes.make total_bits '1') in
    let have_best = ref false in
    let perm = Array.make n (-1) in
    let used = Array.make n false in
    let best_perm = Array.make n (-1) in
    let leaves = ref 0 in
    let seen = Array.make n 0 in
    let record_leaf () =
      incr leaves;
      for p = 0 to n - 1 do
        seen.(p) <- seen.(p) lor (1 lsl perm.(p))
      done
    in
    let col_off v = v * (v - 1) / 2 in
    let rec go v lt =
      if v = n then begin
        if lt || not !have_best then begin
          Bytes.blit buf 0 !best 0 total_bits;
          have_best := true;
          Array.blit perm 0 best_perm 0 n;
          leaves := 0;
          Array.fill seen 0 n 0;
          record_leaf ();
          true
        end
        else begin
          (* equal prefix all the way down: the full string ties the
             incumbent, i.e. this labeling is optimal too *)
          record_leaf ();
          false
        end
      end
      else begin
        let updated = ref false in
        let lt_state = ref lt in
        for candidate = 0 to n - 1 do
          if (not used.(candidate)) && color.(candidate) = target.(v) then begin
            let off = col_off v in
            for j = 0 to v - 1 do
              Bytes.set buf (off + j)
                (if Graph.mem_edge g perm.(j) candidate then '1' else '0')
            done;
            let verdict =
              if !lt_state || not !have_best then -1
              else begin
                let rec cmp j =
                  if j >= v then 0
                  else begin
                    let c =
                      Char.compare (Bytes.get buf (off + j)) (Bytes.get !best (off + j))
                    in
                    if c <> 0 then c else cmp (j + 1)
                  end
                in
                cmp 0
              end
            in
            if verdict <= 0 then begin
              used.(candidate) <- true;
              perm.(v) <- candidate;
              if go (v + 1) (!lt_state || verdict < 0) then begin
                lt_state := false;
                updated := true
              end;
              used.(candidate) <- false;
              perm.(v) <- -1
            end
          end
        done;
        !updated
      end
    in
    ignore (go 0 false);
    {
      form = Printf.sprintf "%d:%s" n (Bytes.to_string !best);
      perm = best_perm;
      aut_count = !leaves;
      position_vertices = seen;
    }
  end
