(* Verdicts of [Compare_runs.judge] on hand-made run sets. Exits 1 on the
   first wrong verdict. *)

let cases =
  let steady m = Array.init 10 (fun i -> m *. (1.0 +. (0.002 *. float_of_int (i - 5)))) in
  (* quartile spread about 0.5 of the median: wider than any bound *)
  let noisy m = Array.init 10 (fun i -> m *. (if i mod 2 = 0 then 0.7 else 1.3)) in
  Compare_runs.
    [
      ("steady, same median", true, steady 1.0, steady 1.0, Unchanged);
      ("steady, 5% worse", true, steady 1.0, steady 1.05, Unchanged);
      ("steady, 3x worse", true, steady 1.0, steady 3.0, Regressed);
      ("steady, half the time", true, steady 1.0, steady 0.5, Improved);
      ("noisy, same median", true, noisy 1.0, noisy 1.0, Unresolved);
      ("noisy A and B, 3x worse", true, noisy 1.0, noisy 3.0, Regressed);
      ("noisy A, steady B 3x worse", true, noisy 1.0, steady 3.0, Regressed);
      ("noisy, every B run better", true, noisy 1.0, noisy 0.1, Improved);
      ("higher is better, 3x lower", false, noisy 3.0, noisy 1.0, Regressed);
      ("higher is better, 5% lower", false, steady 1.0, steady 0.95, Unchanged);
    ]

let () =
  let wrong = ref 0 in
  List.iter
    (fun (name, lower_better, a, b, want) ->
      let got = Compare_runs.judge ~lower_better ~bound:0.25 a b in
      if got <> want then begin
        incr wrong;
        Printf.eprintf "judge: %s: %s, expected %s\n" name (Compare_runs.verdict_name got)
          (Compare_runs.verdict_name want)
      end)
    cases;
  if !wrong > 0 then exit 1
