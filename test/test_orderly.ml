open Test_helpers

(* Ground truth: connected graphs by vertex count, up to isomorphism
   (OEIS A001349) and labeled (A001187). *)
let classes = [| 1; 1; 1; 2; 6; 21; 112; 853; 11117 |]

let labeled = [| 1; 1; 1; 4; 38; 728; 26704; 1866256; 251548592 |]

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let test_counts_small () =
  for n = 1 to 7 do
    check_int "count = A001349" classes.(n) (Orderly.count n)
  done

let test_counts_n8 () = check_int "count n=8" classes.(8) (Orderly.count 8)

(* The defining property: every isomorphism class of connected graphs is
   emitted exactly once. Cross-checked against an independent brute
   force — Canon-dedup over the full rank-range enumeration. *)
let exactly_once n =
  let brute = Hashtbl.create 1024 in
  Enumerate.connected_graphs n (fun g ->
      Hashtbl.replace brute (Canon.canonical_form g) ());
  let emitted = Hashtbl.create 1024 in
  Orderly.iter n (fun g cert ->
      check_bool "cert.form = canonical_form g" true
        (String.equal cert.Canon.form (Canon.canonical_form g));
      check_false "no class emitted twice" (Hashtbl.mem emitted cert.Canon.form);
      Hashtbl.replace emitted cert.Canon.form ();
      check_true "emitted class exists in brute force"
        (Hashtbl.mem brute cert.Canon.form));
  check_int "every brute-force class emitted" (Hashtbl.length brute)
    (Hashtbl.length emitted)

let test_exactly_once_small () =
  for n = 1 to 6 do
    exactly_once n
  done

let test_exactly_once_n7 () = exactly_once 7

(* Orbit–stabilizer: summing n!/|Aut| over the generated classes must
   recover the labeled count, a global check that every certificate's
   automorphism count is exact. *)
let labeled_count n =
  let sum = ref 0 in
  Orderly.iter n (fun _ cert -> sum := !sum + (factorial n / cert.Canon.aut_count));
  !sum

let test_labeled_counts_small () =
  for n = 1 to 7 do
    check_int "sum n!/|Aut| = A001187" labeled.(n) (labeled_count n)
  done

let test_labeled_counts_n8 () = check_int "labeled n=8" labeled.(8) (labeled_count 8)

(* Sharding: adjacent ranges concatenated in ascending order reproduce
   the full emission sequence, for every cut point. *)
let test_shard_concatenation () =
  let n = 7 in
  let forms lo hi =
    let acc = ref [] in
    Orderly.iter ~lo ~hi n (fun _ cert -> acc := cert.Canon.form :: !acc);
    List.rev !acc
  in
  let space = Orderly.space n in
  let full = forms 0 space in
  check_int "full emission count" classes.(n) (List.length full);
  List.iter
    (fun mid -> check_true "split at mid reproduces full" (forms 0 mid @ forms mid space = full))
    [ 0; 1; space / 3; space / 2; space - 1; space ]

let test_rejects_out_of_range () =
  Alcotest.check_raises "n too large" (Invalid_argument "Orderly.iter")
    (fun () -> Orderly.iter (Orderly.max_vertices + 1) (fun _ _ -> ()));
  Alcotest.check_raises "bad range" (Invalid_argument "Orderly.iter")
    (fun () -> Orderly.iter ~lo:2 ~hi:1 5 (fun _ _ -> ()))

(* Certificate sanity over random connected graphs: the permutation is a
   bijection mapping the graph onto its canonical copy, |Aut| divides n!,
   and each position's orbit mask contains the vertex the optimal
   labeling places there. *)
let cert_sane g =
  let n = Graph.n g in
  let cert = Canon.cert g in
  let seen = Array.make n false in
  Array.iter (fun v -> seen.(v) <- true) cert.Canon.perm;
  Array.for_all Fun.id seen
  && String.equal cert.Canon.form (Canon.canonical_form g)
  && cert.Canon.aut_count >= 1
  && factorial n mod cert.Canon.aut_count = 0
  && Array.for_all2
       (fun mask v -> mask land (1 lsl v) <> 0)
       cert.Canon.position_vertices cert.Canon.perm
  && String.equal (Canon.canonical_form (Orderly.canonical_copy cert)) cert.Canon.form

(* Oracle for [Orderly.min_mask_graph]: the minimum column-major edge
   mask over all n! labelings, by brute force. *)
let brute_min_mask g =
  let n = Graph.n g in
  let edges = Array.of_list (Graph.edges g) in
  let pos = Array.make n (-1) in
  let used = Array.make n false in
  let best = ref max_int in
  let rec go v =
    if v = n then begin
      let mask = ref 0 in
      Array.iter
        (fun (u, w) ->
          let a = min pos.(u) pos.(w) and b = max pos.(u) pos.(w) in
          mask := !mask lor (1 lsl ((b * (b - 1) / 2) + a)))
        edges;
      if !mask < !best then best := !mask
    end
    else
      for p = 0 to n - 1 do
        if not used.(p) then begin
          used.(p) <- true;
          pos.(v) <- p;
          go (v + 1);
          used.(p) <- false
        end
      done
  in
  go 0;
  !best

let search_min_mask g = Orderly.mask_of_graph (Orderly.min_mask_graph g)

(* The search finds exactly the brute force's mask — the invariant that
   makes the orderly census byte-identical to the rank-range census. *)
let min_mask_exact g = search_min_mask g = brute_min_mask g

(* every class on [n] vertices, as generated and randomly relabeled *)
let check_min_mask_classes n =
  let rng = Prng.create n in
  Orderly.iter n (fun g _ ->
      let oracle = brute_min_mask g in
      let perm = Array.init n Fun.id in
      Prng.shuffle_in_place rng perm;
      check_int "min-mask search = brute force" oracle (search_min_mask g);
      check_int "min-mask search on a relabeled copy = brute force" oracle
        (search_min_mask (relabel g perm)))

let test_min_mask_small () =
  for n = 1 to 6 do
    check_min_mask_classes n
  done

let test_min_mask_n7 () = check_min_mask_classes 7

let suite =
  [
    case "class counts = A001349 (n <= 7)" test_counts_small;
    slow_case "class counts = A001349 (n = 8)" test_counts_n8;
    case "each class generated exactly once vs brute force (n <= 6)"
      test_exactly_once_small;
    slow_case "each class generated exactly once vs brute force (n = 7)"
      test_exactly_once_n7;
    case "orbit-stabilizer labeled counts = A001187 (n <= 7)"
      test_labeled_counts_small;
    slow_case "orbit-stabilizer labeled counts = A001187 (n = 8)"
      test_labeled_counts_n8;
    case "shard ranges concatenate to the full emission" test_shard_concatenation;
    case "out-of-range arguments rejected" test_rejects_out_of_range;
    qcheck ~count:60 "certificate invariants on random connected graphs"
      (gen_connected ~min_n:1 ~max_n:7)
      cert_sane;
    case "min-mask exact on all n <= 6 classes, relabeled too"
      test_min_mask_small;
    slow_case "min-mask exact on all n = 7 classes, relabeled too" test_min_mask_n7;
    qcheck "min-mask exact on random connected graphs (n <= 8)"
      (gen_connected ~min_n:1 ~max_n:8)
      min_mask_exact;
  ]
