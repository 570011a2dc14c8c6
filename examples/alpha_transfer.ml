(* The alpha-game baseline and the paper's transfer claim.

     dune exec examples/alpha_transfer.exe

   The classic network creation game (Fabrikant et al.) prices each link at
   alpha; its behavior depends delicately on alpha and its Nash equilibria
   are NP-hard to verify.  The paper's swap equilibria need no alpha at
   all, and their diameter bounds transfer to every alpha.  This example
   runs the alpha-game across five orders of magnitude of alpha and shows
   the equilibrium networks' diameters stay small throughout. *)

let pf = Printf.printf

let () =
  let n = 12 in
  pf "alpha-game best-response dynamics, n = %d, start = random tree (seed 7)\n\n" n;
  pf "  %10s %9s %7s %9s %13s %13s %8s\n" "alpha" "outcome" "links" "diameter"
    "alpha-local-eq" "swap-eq (sum)" "PoA";
  List.iter
    (fun alpha ->
      let rng = Prng.create 7 in
      let game = Alpha_game.create ~alpha (Random_graphs.tree rng n) in
      let r = Alpha_game.run_dynamics game in
      let st = r.Alpha_game.state in
      let g = Alpha_game.graph st in
      pf "  %10.2f %9s %7d %9s %13b %13b %8.3f\n" alpha
        (match r.Alpha_game.outcome with
        | Alpha_game.Converged -> "conv"
        | Alpha_game.Cycled -> "cycled"
        | Alpha_game.Round_limit -> "limit")
        (Graph.m g)
        (match Metrics.diameter g with Some d -> string_of_int d | None -> "inf")
        (Equilibrium.check_alpha_game st = Equilibrium.Equilibrium)
        (Equilibrium.is_sum_equilibrium g)
        (Poa.alpha_poa st))
    [ 0.1; 0.5; 1.0; 2.0; 5.0; 12.0; 24.0; 72.0; 144.0 ];

  pf "\nreading the table:\n";
  pf "- small alpha: links are cheap, agents buy towards the complete graph;\n";
  pf "- large alpha: links are dear, the network thins to a tree;\n";
  pf "- the diameter column stays within the swap-equilibrium bounds for every\n";
  pf "  alpha, with no per-alpha analysis — the point of the parameter-free model.\n";
  pf "- alpha equilibria need not be full swap equilibria (only the owner may\n";
  pf "  re-point a link there), which is why the swap-eq column can flip to false.\n\n";

  (* ownership detail: who paid for what *)
  let rng = Prng.create 7 in
  let game = Alpha_game.create ~alpha:4.0 (Random_graphs.tree rng n) in
  let r = Alpha_game.run_dynamics game in
  let st = r.Alpha_game.state in
  pf "ownership at alpha = 4.0 equilibrium (agent: links bought):\n  ";
  for v = 0 to n - 1 do
    pf "%d:%d " v (Alpha_game.owned_degree st v)
  done;
  pf "\ntotal social cost %.1f vs optimum %.1f\n"
    (Alpha_game.social_cost st)
    (Alpha_game.optimal_social_cost ~alpha:4.0 n)
