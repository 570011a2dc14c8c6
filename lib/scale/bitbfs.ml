let m_runs = Telemetry.counter "scale.bitbfs.runs"

let m_words = Telemetry.counter "scale.bitbfs.words"

let max_sources = 63

type scratch = {
  size : int;
  seen : int array;  (* bit i: sources.(i) has reached the vertex *)
  front : int array;  (* bits of the current wave *)
  next : int array;  (* bits being gathered for the next wave *)
  q : int array;
  q2 : int array;
}

let create_scratch n =
  if n < 0 then invalid_arg "Bitbfs.create_scratch: negative size";
  let sz = max n 1 in
  {
    size = n;
    seen = Array.make sz 0;
    front = Array.make sz 0;
    next = Array.make sz 0;
    q = Array.make sz 0;
    q2 = Array.make sz 0;
  }

(* b is a power of two in a 63-bit int (possibly its sign bit, which lsr
   treats as plain bit 62) *)
let bit_index b0 =
  let b = ref b0 and i = ref 0 in
  if !b land 0xFFFFFFFF = 0 then begin
    i := !i + 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    i := !i + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    i := !i + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    i := !i + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    i := !i + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then incr i;
  !i

let iter_bits f bits =
  let b = ref bits in
  while !b <> 0 do
    let low = !b land (- !b) in
    f (bit_index low);
    b := !b lxor low
  done

(* Scatter kernel: a frontier queue per wave; each frontier word is pushed
   through its row into the neighbours' [next] words. The sources are
   seeded into [next] too, so every wave, 0 included, is promoted the same
   way: [visit] sees the new bits, and only the vertices it keeps enter the
   frontier. *)
let run_until sc t ~sources ~visit =
  let n = Flexcsr.n t in
  let s = Array.length sources in
  if s = 0 || s > max_sources then
    invalid_arg "Bitbfs.run: need 1..max_sources sources";
  if n > sc.size then invalid_arg "Bitbfs.run: scratch too small";
  Array.iter
    (fun src ->
      if src < 0 || src >= n then invalid_arg "Bitbfs.run: source out of range")
    sources;
  Array.fill sc.seen 0 n 0;
  Array.fill sc.front 0 n 0;
  Array.fill sc.next 0 n 0;
  Telemetry.incr m_runs;
  let seen = sc.seen and front = sc.front and next = sc.next in
  let off, len, arena = Flexcsr.rows t in
  let promote q qlen wave =
    let kept = ref 0 in
    for qi = 0 to qlen - 1 do
      let u = q.(qi) in
      let bits = next.(u) in
      next.(u) <- 0;
      if visit u wave bits then begin
        front.(u) <- bits;
        q.(!kept) <- u;
        incr kept
      end
    done;
    !kept
  in
  let qlen = ref 0 in
  Array.iteri
    (fun i src ->
      if next.(src) = 0 then begin
        sc.q.(!qlen) <- src;
        incr qlen
      end;
      next.(src) <- next.(src) lor (1 lsl i);
      seen.(src) <- seen.(src) lor (1 lsl i))
    sources;
  let cur = ref sc.q and nxt = ref sc.q2 in
  let curlen = ref (promote sc.q !qlen 0) in
  let wave = ref 0 in
  let words = ref 0 in
  while !curlen > 0 do
    incr wave;
    words := !words + !curlen;
    let cq = !cur and nq = !nxt in
    let nlen = ref 0 in
    for qi = 0 to !curlen - 1 do
      let v = cq.(qi) in
      let bits = front.(v) in
      let base = off.(v) in
      for i = base to base + len.(v) - 1 do
        let u = arena.(i) in
        let add = bits land lnot seen.(u) in
        if add <> 0 then begin
          if next.(u) = 0 then begin
            nq.(!nlen) <- u;
            incr nlen
          end;
          next.(u) <- next.(u) lor add;
          seen.(u) <- seen.(u) lor add
        end
      done;
      front.(v) <- 0
    done;
    curlen := promote nq !nlen !wave;
    cur := nq;
    nxt := cq
  done;
  Telemetry.add m_words !words

let run sc t ~sources ~visit =
  run_until sc t ~sources ~visit:(fun u wave bits ->
      visit u wave bits;
      true)

type stats = { ecc : int; sum : int; reached : int }

let batched sc t ~sources ~visit_abs =
  let s = Array.length sources in
  let pos = ref 0 in
  while !pos < s do
    let k = min max_sources (s - !pos) in
    let base = !pos in
    let chunk = Array.sub sources base k in
    run sc t ~sources:chunk ~visit:(fun u wave bits ->
        iter_bits (fun i -> visit_abs u wave (base + i)) bits);
    pos := !pos + k
  done

let sample_stats sc t ~sources =
  let s = Array.length sources in
  let ecc = Array.make s 0 and sum = Array.make s 0 and reached = Array.make s 0 in
  batched sc t ~sources ~visit_abs:(fun _u wave i ->
      reached.(i) <- reached.(i) + 1;
      sum.(i) <- sum.(i) + wave;
      if wave > ecc.(i) then ecc.(i) <- wave);
  Array.init s (fun i -> { ecc = ecc.(i); sum = sum.(i); reached = reached.(i) })

let distances sc t ~sources =
  let n = Flexcsr.n t in
  let d = Array.init (Array.length sources) (fun _ -> Array.make n (-1)) in
  batched sc t ~sources ~visit_abs:(fun u wave i -> d.(i).(u) <- wave);
  d
