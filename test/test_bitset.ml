open Test_helpers

let test_empty () =
  let s = Bitset.create 100 in
  check_int "cardinal" 0 (Bitset.cardinal s);
  for i = 0 to 99 do
    check_false "no member" (Bitset.mem s i)
  done

let test_add_mem () =
  let s = Bitset.create 200 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  check_true "0" (Bitset.mem s 0);
  check_true "63 (word boundary)" (Bitset.mem s 63);
  check_true "64" (Bitset.mem s 64);
  check_true "199" (Bitset.mem s 199);
  check_false "1" (Bitset.mem s 1);
  check_int "cardinal" 4 (Bitset.cardinal s)

let test_add_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 5;
  Bitset.add s 5;
  check_int "cardinal" 1 (Bitset.cardinal s)

let test_remove () =
  let s = Bitset.create 10 in
  Bitset.add s 5;
  Bitset.remove s 5;
  check_false "removed" (Bitset.mem s 5);
  Bitset.remove s 5;
  check_int "remove idempotent" 0 (Bitset.cardinal s)

(* every bit of an int counts, the sign bit (bit 62 of a word) too *)
let test_popcount () =
  check_int "0" 0 (Bitset.popcount 0);
  check_int "-1" 63 (Bitset.popcount (-1));
  check_int "min_int" 1 (Bitset.popcount min_int);
  for i = 0 to 62 do
    check_int (Printf.sprintf "bit %d" i) 1 (Bitset.popcount (1 lsl i));
    check_int (Printf.sprintf "bits below %d" i) i (Bitset.popcount ((1 lsl i) - 1))
  done;
  let s = Bitset.create 126 in
  List.iter (Bitset.add s) [ 0; 61; 62; 125 ];
  check_int "cardinal over sign bits" 4 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: out of range") (fun () ->
      Bitset.add s 10)

let test_clear () =
  let s = Bitset.create 100 in
  for i = 0 to 99 do
    Bitset.add s i
  done;
  Bitset.clear s;
  check_int "cleared" 0 (Bitset.cardinal s)

let test_iter_sorted () =
  let s = Bitset.create 300 in
  let members = [ 3; 62; 63; 64; 126; 200; 299 ] in
  List.iter (Bitset.add s) (List.rev members);
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) s;
  Alcotest.(check (list int)) "increasing order" members (List.rev !acc)

let test_fold_to_list () =
  let s = Bitset.create 50 in
  List.iter (Bitset.add s) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Bitset.to_list s);
  check_int "fold sum" 6 (Bitset.fold (fun i acc -> i + acc) s 0)

let test_copy_equal () =
  let s = Bitset.create 70 in
  Bitset.add s 69;
  let c = Bitset.copy s in
  check_true "copies equal" (Bitset.equal s c);
  Bitset.add c 0;
  check_false "diverged" (Bitset.equal s c);
  check_false "original untouched" (Bitset.mem s 0)

let test_inter_cardinal () =
  let a = Bitset.create 100 and b = Bitset.create 100 in
  List.iter (Bitset.add a) [ 1; 2; 3; 70 ];
  List.iter (Bitset.add b) [ 2; 3; 70; 99 ];
  check_int "intersection" 3 (Bitset.inter_cardinal a b)

let test_inter_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset.inter_cardinal") (fun () ->
      ignore (Bitset.inter_cardinal a b))

let test_capacity () =
  check_int "capacity" 123 (Bitset.capacity (Bitset.create 123))

let test_random_against_model () =
  let rng = Prng.create 99 in
  let s = Bitset.create 128 in
  let model = Hashtbl.create 64 in
  for _ = 1 to 2_000 do
    let i = Prng.int rng 128 in
    if Prng.bool rng then begin
      Bitset.add s i;
      Hashtbl.replace model i ()
    end
    else begin
      Bitset.remove s i;
      Hashtbl.remove model i
    end
  done;
  check_int "cardinal matches model" (Hashtbl.length model) (Bitset.cardinal s);
  for i = 0 to 127 do
    check_bool "membership matches model" (Hashtbl.mem model i) (Bitset.mem s i)
  done

let suite =
  [
    case "empty" test_empty;
    case "add/mem across word boundaries" test_add_mem;
    case "add idempotent" test_add_idempotent;
    case "remove" test_remove;
    case "popcount counts the sign bit" test_popcount;
    case "bounds" test_bounds;
    case "clear" test_clear;
    case "iter sorted" test_iter_sorted;
    case "fold / to_list" test_fold_to_list;
    case "copy / equal" test_copy_equal;
    case "inter_cardinal" test_inter_cardinal;
    case "inter capacity mismatch" test_inter_mismatch;
    case "capacity" test_capacity;
    case "randomized against hashtable model" test_random_against_model;
  ]
