(* bncgbench --compare A.json B.json: the parent's runs (A) against the
   change's (B), one row per (workload, metric). A side may be a
   comma-separated list of row files, read in order: runs made one seed
   at a time, alternating which side goes first, pair up by position.

   End-to-end metrics get a verdict under the bound BENCHMARK.json fixes,
   tested in this order:
     improved    B's median is better by more than A's quartile spread,
                 B wins at least nine tenths of the index-paired runs, and
                 either both sides are steady or every B run reads better
                 than every A run;
     regressed   B's median is worse than A's by more than the bound,
                 however noisy either side is;
     unresolved  a side's quartile spread is wider than the bound, unless
                 every B run reads better than every A run: the verdict
                 that would otherwise have been "unchanged";
     unchanged   otherwise.
   Ungated and per-layer metrics have no bound; their rows show where a
   change moved time. Exits 1 when any end-to-end pair regressed. *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let spread xs =
  let q1, q3 = Measure.quartiles xs in
  (q3 -. q1) /. Float.abs (Stats.median xs)

let judge ~lower_better ~bound a b =
  let better x y = if lower_better then x < y else x > y in
  let ma = Stats.median a and mb = Stats.median b in
  let q1, q3 = Measure.quartiles a in
  let pairs = min (Array.length a) (Array.length b) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr wins
  done;
  let all_better = Array.for_all (fun x -> Array.for_all (fun y -> better x y) a) b in
  let noisy = Float.max (spread a) (spread b) > bound in
  let worse = (if lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
  if
    better mb ma
    && Float.abs (mb -. ma) > q3 -. q1
    && 10 * !wins >= 9 * pairs
    && (all_better || not noisy)
  then Improved
  else if worse > bound then Regressed
  else if noisy && not all_better then Unresolved
  else Unchanged

let values rows workload name =
  Array.of_list
    (List.filter_map
       (fun r -> if r.Rows.workload = workload && r.Rows.name = name then Some r.Rows.value else None)
       rows)

let main ~benchmark a_path b_path =
  let e2e, layers = Rows.specs benchmark in
  let read paths = List.concat_map Rows.read (String.split_on_char ',' paths) in
  let a = read a_path and b = read b_path in
  let label side paths =
    match String.split_on_char ',' paths with
    | [ p ] -> side ^ " " ^ Filename.basename p
    | p :: more -> Printf.sprintf "%s %s +%d files" side (Filename.basename p) (List.length more)
    | [] -> side
  in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.Rows.workload) (a @ b))
  in
  let quart xs =
    let q1, q3 = Measure.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (Stats.median xs) q1 q3 (Array.length xs)
  in
  let regressed = ref 0 in
  Printf.printf "%-11s %-26s %-34s %-34s %8s %6s  %s\n" "workload" "metric"
    (label "A" a_path) (label "B" b_path) "change" "bound"
    "verdict";
  let line w (s : Rows.spec) =
    let va = values a w s.s_name and vb = values b w s.s_name in
    if Array.length va > 0 && Array.length vb > 0 then begin
      let ma = Stats.median va and mb = Stats.median vb in
      let change = (mb -. ma) /. Float.abs ma *. 100.0 in
      let bound, verdict =
        match s.s_bound with
        | Some bound ->
          let v = judge ~lower_better:s.s_lower_better ~bound va vb in
          if v = Regressed then incr regressed;
          (Printf.sprintf "%.0f%%" (bound *. 100.0), verdict_name v)
        | None -> ("-", "no bound")
      in
      Printf.printf "%-11s %-26s %-34s %-34s %+7.1f%% %6s  %s\n" w s.s_name (quart va)
        (quart vb) change bound verdict
    end
    else if s.s_bound <> None then
      Printf.printf "%-11s %-26s %-34s %-34s %8s %6s  %s\n" w s.s_name
        (if va = [||] then "missing" else quart va)
        (if vb = [||] then "missing" else quart vb)
        "" "" "unresolved"
  in
  List.iter (fun w -> List.iter (line w) e2e) workloads;
  print_newline ();
  let ungated =
    List.map
      (fun (s_name, s_unit) -> { Rows.s_name; s_unit; s_lower_better = true; s_bound = None })
      Rows.ungated
  in
  List.iter
    (fun w ->
      List.iter
        (fun (s : Rows.spec) ->
          if values a w s.s_name <> [||] || values b w s.s_name <> [||] then line w s)
        (ungated @ layers))
    workloads;
  if !regressed > 0 then exit 1
