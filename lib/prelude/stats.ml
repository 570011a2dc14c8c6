type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let require_nonempty xs name =
  if Array.length xs = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty" name)

let mean xs =
  require_nonempty xs "mean";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  require_nonempty xs "stddev";
  let n = Array.length xs in
  if n = 1 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let sorted_copy xs =
  let c = Array.copy xs in
  Array.sort compare c;
  c

let median xs =
  require_nonempty xs "median";
  let c = sorted_copy xs in
  let n = Array.length c in
  if n mod 2 = 1 then c.(n / 2) else (c.((n / 2) - 1) +. c.(n / 2)) /. 2.0

let percentile xs p =
  require_nonempty xs "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let c = sorted_copy xs in
  let n = Array.length c in
  let pos = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then c.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    c.(lo) +. (frac *. (c.(hi) -. c.(lo)))
  end

let summarize xs =
  require_nonempty xs "summarize";
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs;
    median = median xs;
  }

let summarize_ints xs = summarize (Array.map float_of_int xs)

let histogram xs =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun x ->
      let c = try Hashtbl.find tbl x with Not_found -> 0 in
      Hashtbl.replace tbl x (c + 1))
    xs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
