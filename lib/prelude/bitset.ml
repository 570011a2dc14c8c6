type t = {
  words : int array;
  capacity : int;
}

let bits_per_word = 63

let create capacity =
  assert (capacity >= 0);
  let nwords = (capacity + bits_per_word - 1) / bits_per_word in
  { words = Array.make (max nwords 1) 0; capacity }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* SWAR: counts per bit pair, nibble and byte, then one multiply sums
   the bytes into the top one. The sign bit (bit 62) is a pair of its
   own, so negative words count right too. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    while !word <> 0 do
      let bit = !word land - !word in
      let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
      f ((w * bits_per_word) + log2 bit 0);
      word := !word land lnot bit
    done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i l -> i :: l) t [])

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let equal a b = a.capacity = b.capacity && a.words = b.words

let inter_cardinal a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.inter_cardinal";
  let acc = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(w) land b.words.(w))
  done;
  !acc
