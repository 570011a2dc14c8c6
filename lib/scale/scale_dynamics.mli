(** Sampled best-response dynamics at large n.

    The exact engine ({!Dynamics} over {!Swap_eval}) holds a {!Graph.t}
    plus cached distance rows; at n = 10⁵–10⁶ that representation and its
    full candidate scans are out of reach. This engine runs the {e same}
    process — random focal agent, [budget] uniformly sampled candidate
    swaps, best strictly-improving one applied — over a {!Flexcsr} arena,
    with three scale devices:

    - {b shared candidate stream}: pairs come from
      {!Dynamics.draw_sampled_candidates}, so with [probes_per_round = 0]
      (a round = n probes), [confirm = Exact_scan] and equal seeds this
      engine reproduces [Dynamics.run { rule = Sampled budget; schedule =
      Random_agent }] move-for-move, delta-for-delta — the differential
      test anchor;
    - {b batched certified bounds} (sum version): for a probe's candidate
      set, the actor's one BFS ({!Flexcsr.bfs_hop_stats}) and bit-parallel
      {!Bitbfs} batches over the distinct adds yield a sound lower bound
      [Σ_u min(dd_w(u), 1 + d(x,u), 2 + d(v,u))] on the actor's post-swap
      cost. The first two terms alone are a lower bound; the third only
      weakens it, but keeps every term finite and bounds how far a batch
      must go. Drop w's term [a_w(u) = min(dd_w(u), 2 + d(v,u))] is
      [d(v,u)] unless every shortest v–u path starts with vw, and then
      [d(v,u)] plus an excess of 1 or 2 that one pass in BFS order
      computes for all the probe's drops ({!Flexcsr.drop_excess}): the
      engine keeps three n-int arrays (distances, first hops, excesses)
      and no per-drop rows. The batch visit lowers a candidate's sum by
      [a_w(u) − 1 − d(x,u)] where that is positive, through a per-drop
      mask of the batch's source bits and a (drop, bit) → candidate
      table, and stops expanding u past wave [max_w a_w(u) − 2]
      ({!Bitbfs.run_until}), after which no candidate can be lowered at
      u or beyond it — so each bound is the integer the full batch
      gives. Candidates whose bound already meets the cutoff are skipped
      with no further work, the rest fall back to one exact
      mutation-free BFS ({!Flexcsr.bfs_swap_stats});
    - {b rolling state fingerprint}: an XOR of per-edge hashes updated in
      O(1) per move detects revisited states over a bounded [window] of
      recent states (deletions strictly shrink the edge set and never
      flag a cycle, as in the exact engine).

    {b Sampling soundness caveat.} [Exact_scan] confirmation certifies a
    true swap equilibrium but costs a full O(n·deg·n) scan — fine for
    differential tests, absurd at 10⁶. [Quiescence p] instead declares
    convergence after [p] consecutive probes found no improving candidate;
    that is a statistical verdict ({!result.sampled_verdict} is set), not
    a certificate — see DESIGN.md "Large-n dynamics".

    Telemetry (under [scale.dynamics.*]): probes, moves, deletions,
    rounds, certified skips, exact evaluations, scalar BFS runs (one per
    probe plus one per exact evaluation, and the max game's deletion
    checks); the spans [bound] (a sum probe's drop excesses and batches)
    and [exact] (one exact evaluation of a sampled candidate). Logs (source
    [bncg.scale]): one Info line per round (round, moves and probes so
    far) and one at the end. *)

type confirm =
  | Exact_scan
      (** a quiet round triggers the exact engine's full deterministic
          scan; [None] certifies equilibrium (byte-compat with
          {!Dynamics}) *)
  | Quiescence of int
      (** declare convergence after this many consecutive unimproving
          probes (statistical verdict; the only affordable option at
          large n) *)

type config = {
  game : Game.t;
  budget : int;  (** sampled candidates per probe, as [Dynamics.Sampled] *)
  probes_per_round : int;  (** 0 means n, matching the exact engine *)
  max_rounds : int;
  allow_deletions : bool;  (** neutral deletions first, [Max] only *)
  confirm : confirm;
  window : int;  (** recent-state fingerprints kept for cycle detection *)
  trajectory_every : int;
      (** sample the diameter/mean-distance trajectory every this many
          rounds (0: only at start and end) *)
  trajectory_sources : int;  (** BFS sources per sample; 0 disables *)
  traj_seed : int;
      (** trajectory PRNG substream seed — independent of the run stream,
          so sampling never perturbs the dynamics *)
  record_trace : bool;
}

val default_config : Game.t -> config
(** [budget = 16], a round of n probes, [max_rounds = 10_000],
    [Exact_scan], [window = 2²⁰], trajectory at start/end from 32
    sources; deletions exactly for [Max]. *)

type sample = {
  s_round : int;
  s_moves : int;  (** moves applied before the sample *)
  s_diameter_lb : int;  (** max sampled eccentricity: a diameter lower bound *)
  s_mean_dist : float;  (** mean distance over sampled sources *)
}

type result = {
  outcome : Dynamics.outcome;
  sampled_verdict : bool;
      (** [Converged] by quiescence rather than by exact scan *)
  rounds : int;
  probes : int;
  moves : int;
  deletions : int;
  final : Flexcsr.t;
  final_m : int;
  trajectory : sample list;  (** chronological *)
  trace : (Swap.move * int) list;
      (** chronological (move, delta), when [record_trace] *)
}

val run : ?rng:Prng.t -> config -> Csr.t -> result
(** Runs the dynamics on a fresh {!Flexcsr} copy of the snapshot. The
    input must be connected (generators patch connectivity; see
    {!Scale_gen}). @raise Invalid_argument on disconnected input. *)
