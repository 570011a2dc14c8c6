let log_src = Logs.Src.create "bncg.scale" ~doc:"large-n sampled swap dynamics"

module Log = (val Logs.src_log log_src)

let m_runs = Telemetry.counter "scale.dynamics.runs"

let m_rounds = Telemetry.counter "scale.dynamics.rounds"

let m_probes = Telemetry.counter "scale.dynamics.probes"

let m_moves = Telemetry.counter "scale.dynamics.moves"

let m_deletions = Telemetry.counter "scale.dynamics.deletions"

let m_certified = Telemetry.counter "scale.dynamics.certified_skips"

let m_exact = Telemetry.counter "scale.dynamics.exact_evals"

let m_bfs = Telemetry.counter "scale.dynamics.bfs_runs"

let m_bound = Telemetry.span "scale.dynamics.bound"

let m_exact_bfs = Telemetry.span "scale.dynamics.exact"

type confirm = Exact_scan | Quiescence of int

type config = {
  game : Game.t;
  budget : int;
  probes_per_round : int;
  max_rounds : int;
  allow_deletions : bool;
  confirm : confirm;
  window : int;
  trajectory_every : int;
  trajectory_sources : int;
  traj_seed : int;
  record_trace : bool;
}

let default_config game =
  {
    game;
    budget = 16;
    probes_per_round = 0;
    max_rounds = 10_000;
    allow_deletions = Game.equal game Game.Max;
    confirm = Exact_scan;
    window = 1 lsl 20;
    trajectory_every = 0;
    trajectory_sources = 32;
    traj_seed = 0;
    record_trace = false;
  }

type sample = {
  s_round : int;
  s_moves : int;
  s_diameter_lb : int;
  s_mean_dist : float;
}

type result = {
  outcome : Dynamics.outcome;
  sampled_verdict : bool;
  rounds : int;
  probes : int;
  moves : int;
  deletions : int;
  final : Flexcsr.t;
  final_m : int;
  trajectory : sample list;
  trace : (Swap.move * int) list;
}

let run ?rng cfg csr =
  (* the certified-bound machinery and the CSR kernels speak the basic
     two-game cost model; the α-game (ownership state, float costs) has
     no sampled engine yet and is rejected up front with a clear error *)
  let version =
    match Game.basic cfg.game with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf
           "Scale_dynamics.run: the scale engine supports only the basic \
            games (sum, max); got %s"
           (Game.to_string cfg.game))
  in
  if cfg.budget < 1 then invalid_arg "Scale_dynamics.run: budget < 1";
  if cfg.window < 1 then invalid_arg "Scale_dynamics.run: window < 1";
  let rng = match rng with Some r -> r | None -> Prng.create 0 in
  let fx = Flexcsr.of_csr csr in
  let n = Flexcsr.n fx in
  if n < 1 then invalid_arg "Scale_dynamics.run: empty graph";
  let dist_v = Array.make n (-1) in
  let dist_x = Array.make n (-1) in
  let queue = Array.make n 0 in
  let reached0, _, _ = Flexcsr.bfs_stats fx 0 ~dist:dist_v ~queue in
  if reached0 < n then invalid_arg "Scale_dynamics.run: input must be connected";
  (* the focal agent's first hops and each vertex's drop excess: with
     dist_v, the whole state of the sum bound (DESIGN.md "Large-n
     dynamics") *)
  let hop = Array.make n (-1) in
  let excess = Array.make n 0 in
  let bsc = Bitbfs.create_scratch n in
  (* per bound batch: a probe's distinct drops (slots, at most [budget]),
     each slot's source bits and the (slot, bit) -> candidate table, grown
     to the most slots a probe has used *)
  let slot_drop = Array.make cfg.budget 0 in
  let slot_mask = Array.make cfg.budget 0 in
  let slot_cand = ref [||] in
  let inf = Usage_cost.infinite in
  (* rolling edge-set fingerprint: XOR of per-edge hashes, O(1) per move *)
  let edge_hash a b =
    let lo = min a b and hi = max a b in
    Prng.hash64 (Int64.of_int ((lo * n) + hi))
  in
  let fp = ref 0L in
  for v = 0 to n - 1 do
    Flexcsr.iter_neighbors (fun w -> if v < w then fp := Int64.logxor !fp (edge_hash v w)) fx v
  done;
  let seen : (int64, int) Hashtbl.t = Hashtbl.create 1024 in
  let windowq : int64 Queue.t = Queue.create () in
  let push_state f =
    (match Hashtbl.find_opt seen f with
    | Some c -> Hashtbl.replace seen f (c + 1)
    | None -> Hashtbl.add seen f 1);
    Queue.push f windowq;
    if Queue.length windowq > cfg.window then begin
      let old = Queue.pop windowq in
      match Hashtbl.find_opt seen old with
      | Some 1 -> Hashtbl.remove seen old
      | Some c -> Hashtbl.replace seen old (c - 1)
      | None -> ()
    end
  in
  push_state !fp;
  let probes = ref 0 and moves = ref 0 and deletions = ref 0 in
  let rounds = ref 0 in
  let outcome = ref Dynamics.Round_limit in
  let sampled_verdict = ref false in
  let trace = ref [] in
  let samples = ref [] in
  let last_sample_round = ref (-1) in
  let take_sample round =
    if cfg.trajectory_sources > 0 && round <> !last_sample_round then begin
      last_sample_round := round;
      (* negative substream indices: the per-vertex generator streams own
         [0..n), see Prng.substream *)
      let srng = Prng.substream cfg.traj_seed (-2 - round) in
      let k = min cfg.trajectory_sources n in
      let sources = Prng.sample_distinct srng ~n ~k in
      let stats = Bitbfs.sample_stats bsc fx ~sources in
      let dia = ref 0 and total = ref 0 in
      Array.iter
        (fun (s : Bitbfs.stats) ->
          if s.ecc > !dia then dia := s.ecc;
          total := !total + s.sum)
        stats;
      let denom = float_of_int (k * max 1 (n - 1)) in
      samples :=
        {
          s_round = round;
          s_moves = !moves;
          s_diameter_lb = !dia;
          s_mean_dist = float_of_int !total /. denom;
        }
        :: !samples
    end
  in
  let after_cost reached s e =
    if reached < n then inf
    else match version with Usage_cost.Sum -> s | Usage_cost.Max -> e
  in
  (* Neutral-deletion scan, mirroring Dynamics.find_neutral_deletion: Max
     only, sorted-row order, first drop with exact delta < 1. *)
  let find_deletion v row ecc_v =
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < Array.length row do
      let drop = row.(!i) in
      incr i;
      let reached, _, e = Flexcsr.bfs_delete_stats fx v ~drop ~dist:dist_x ~queue in
      Telemetry.incr m_bfs;
      let d = (if reached < n then inf else e) - ecc_v in
      if d < 1 then found := Some (Swap.Delete { actor = v; drop }, d)
    done;
    !found
  in
  (* One sampled activation of agent [v]: the candidate stream is shared
     with Dynamics (identical rng consumption); sum-version candidates are
     first screened by the batched lower bound, the rest (and all
     max-version ones) get one exact mutation-free BFS. *)
  let probe v =
    Telemetry.incr m_probes;
    incr probes;
    let deg = Flexcsr.degree fx v in
    if deg = 0 then None
    else begin
      (* only the sum bound reads first hops *)
      let reached, sum_v, ecc_v =
        match version with
        | Usage_cost.Sum -> Flexcsr.bfs_hop_stats fx v ~dist:dist_v ~hop ~queue
        | Usage_cost.Max -> Flexcsr.bfs_stats fx v ~dist:dist_v ~queue
      in
      Telemetry.incr m_bfs;
      if reached < n then invalid_arg "Scale_dynamics: graph became disconnected";
      let row = Flexcsr.neighbors fx v in
      let deletion =
        if cfg.allow_deletions && version = Usage_cost.Max then
          find_deletion v row ecc_v
        else None
      in
      match deletion with
      | Some _ as d -> d
      | None ->
        if deg >= n - 1 then None
        else begin
          let cost_v =
            match version with Usage_cost.Sum -> sum_v | Usage_cost.Max -> ecc_v
          in
          let pairs =
            Dynamics.draw_sampled_candidates rng ~deg ~n ~budget:cfg.budget
          in
          (* dedup candidates: repeated (drop, add) draws share bound,
             exact delta and bookkeeping *)
          let ncand = ref 0 in
          let cand_drop = Array.make cfg.budget 0 in
          let cand_add = Array.make cfg.budget 0 in
          let cand_slot = Array.make cfg.budget 0 in
          let cand_src = Array.make cfg.budget 0 in
          let cand_delta = Array.make cfg.budget max_int in
          let acc = Array.make cfg.budget 0 in
          let cand_key = Hashtbl.create 32 in
          let pair_cand = Array.make cfg.budget (-1) in
          Array.iteri
            (fun pi (di, add) ->
              let drop = row.(di) in
              if
                add <> v && add <> drop
                && not (Array.exists (fun w -> w = add) row)
              then
                match Hashtbl.find_opt cand_key (drop, add) with
                | Some c -> pair_cand.(pi) <- c
                | None ->
                  let c = !ncand in
                  incr ncand;
                  cand_drop.(c) <- drop;
                  cand_add.(c) <- add;
                  cand_delta.(c) <- max_int;
                  Hashtbl.add cand_key (drop, add) c;
                  pair_cand.(pi) <- c)
            pairs;
          if !ncand = 0 then None
          else begin
            if version = Usage_cost.Sum then begin
              let t0 = Telemetry.start () in
              (* the distinct drops get slots. Drop w's row would hold
                 a_w(u) = min(dd_w(u), 2 + d_v(u)), which is d_v(u) plus
                 excess(u) when hop(u) = w and d_v(u) otherwise, so its
                 sum, the base of w's candidates, is sum_v plus the
                 excesses of w's vertices *)
              let nslots = ref 0 in
              for c = 0 to !ncand - 1 do
                let w = cand_drop.(c) in
                let slot = ref 0 in
                while !slot < !nslots && slot_drop.(!slot) <> w do
                  incr slot
                done;
                if !slot = !nslots then begin
                  slot_drop.(!slot) <- w;
                  incr nslots
                end;
                cand_slot.(c) <- !slot
              done;
              let nslots = !nslots in
              let base =
                Flexcsr.drop_excess fx
                  ~drops:(Array.sub slot_drop 0 nslots)
                  ~reached ~dist:dist_v ~hop ~queue ~excess
              in
              for c = 0 to !ncand - 1 do
                acc.(c) <- sum_v + base.(cand_slot.(c))
              done;
              if Array.length !slot_cand < nslots * Bitbfs.max_sources then
                slot_cand := Array.make (nslots * Bitbfs.max_sources) 0;
              let slot_cand = !slot_cand in
              (* the distinct adds are the sources of the bit-parallel
                 batches *)
              let src_of_add = Hashtbl.create 32 in
              let srcs = Array.make !ncand 0 in
              let nsrc = ref 0 in
              for c = 0 to !ncand - 1 do
                let x = cand_add.(c) in
                cand_src.(c) <-
                  (match Hashtbl.find_opt src_of_add x with
                  | Some si -> si
                  | None ->
                    let si = !nsrc in
                    incr nsrc;
                    Hashtbl.add src_of_add x si;
                    srcs.(si) <- x;
                    si)
              done;
              let pos = ref 0 in
              while !pos < !nsrc do
                let lo = !pos in
                let k = min Bitbfs.max_sources (!nsrc - lo) in
                (* a drop slot's mask has bit i when the batch's source i
                   is the add of one of the slot's candidates, found at
                   slot_cand.(slot * max_sources + i) *)
                Array.fill slot_mask 0 nslots 0;
                for c = 0 to !ncand - 1 do
                  let i = cand_src.(c) - lo in
                  if i >= 0 && i < k then begin
                    let s = cand_slot.(c) in
                    slot_mask.(s) <- slot_mask.(s) lor (1 lsl i);
                    slot_cand.((s * Bitbfs.max_sources) + i) <- c
                  end
                done;
                (* source x first reaches u at wave = d(x,u), so the new
                   edge vx lowers the bound's u-term from a_w(u) to
                   1 + wave when that is smaller: by g = a_w(u) − 1 −
                   wave > 0. The largest a_w(u) is d_v(u) + excess(u), so
                   past wave d_v(u) − 2 + excess(u) nothing at u, nor
                   beyond it on a shortest path from x, can be lowered:
                   the batch stops expanding u there *)
                Bitbfs.run_until bsc fx
                  ~sources:(Array.sub srcs lo k)
                  ~visit:(fun u wave bits ->
                    let du = dist_v.(u) and e = excess.(u) in
                    wave <= du - 2 + e
                    && begin
                         let hu = hop.(u) in
                         for s = 0 to nslots - 1 do
                           let m = bits land slot_mask.(s) in
                           if m <> 0 then begin
                             let a = if slot_drop.(s) = hu then du + e else du in
                             let g = a - 1 - wave in
                             if g > 0 then begin
                               let m = ref m and t = ref (s * Bitbfs.max_sources) in
                               while !m <> 0 do
                                 if !m land 1 <> 0 then begin
                                   let c = slot_cand.(!t) in
                                   acc.(c) <- acc.(c) - g
                                 end;
                                 m := !m lsr 1;
                                 incr t
                               done
                             end
                           end
                         done;
                         true
                       end);
                pos := lo + k
              done;
              Telemetry.stop m_bound t0
            end;
            (* decide in draw order under the running cutoff, exactly as
               Dynamics.sampled_move does through Swap_eval.delta_below *)
            let best = ref None in
            Array.iteri
              (fun pi _ ->
                let c = pair_cand.(pi) in
                if c >= 0 then begin
                  let cutoff =
                    match !best with None -> 0 | Some (_, bd) -> bd
                  in
                  let certified =
                    version = Usage_cost.Sum
                    && cand_delta.(c) = max_int
                    && acc.(c) - cost_v >= cutoff
                  in
                  if certified then Telemetry.incr m_certified
                  else begin
                    let d =
                      if cand_delta.(c) <> max_int then cand_delta.(c)
                      else begin
                        let drop = cand_drop.(c) and add = cand_add.(c) in
                        let t0 = Telemetry.start () in
                        let reached, s, e =
                          Flexcsr.bfs_swap_stats fx v ~drop ~add ~dist:dist_x
                            ~queue
                        in
                        Telemetry.stop m_exact_bfs t0;
                        Telemetry.incr m_bfs;
                        Telemetry.incr m_exact;
                        let d = after_cost reached s e - cost_v in
                        cand_delta.(c) <- d;
                        d
                      end
                    in
                    if d < cutoff then
                      best :=
                        Some
                          ( Swap.Swap
                              { actor = v; drop = cand_drop.(c); add = cand_add.(c) },
                            d )
                  end
                end)
              pairs;
            !best
          end
        end
    end
  in
  (* Full deterministic first-improving scan: the Exact_scan confirmation,
     replicating the enumeration order of Swap.iter_moves (sorted drops ×
     ascending adds) behind Dynamics's quiet-pass. *)
  let exact_first_improving v =
    let deg = Flexcsr.degree fx v in
    if deg = 0 then None
    else begin
      let reached, sum_v, ecc_v = Flexcsr.bfs_stats fx v ~dist:dist_v ~queue in
      Telemetry.incr m_bfs;
      ignore reached;
      let row = Flexcsr.neighbors fx v in
      let deletion =
        if cfg.allow_deletions && version = Usage_cost.Max then
          find_deletion v row ecc_v
        else None
      in
      match deletion with
      | Some _ as d -> d
      | None ->
        let cost_v =
          match version with Usage_cost.Sum -> sum_v | Usage_cost.Max -> ecc_v
        in
        let found = ref None in
        (try
           Array.iter
             (fun drop ->
               for add = 0 to n - 1 do
                 if add <> v && not (Flexcsr.mem_edge fx v add) then begin
                   let reached, s, e =
                     Flexcsr.bfs_swap_stats fx v ~drop ~add ~dist:dist_x ~queue
                   in
                   Telemetry.incr m_bfs;
                   let d = after_cost reached s e - cost_v in
                   if d < 0 then begin
                     found := Some (Swap.Swap { actor = v; drop; add }, d);
                     raise Exit
                   end
                 end
               done)
             row
         with Exit -> ());
        !found
    end
  in
  let exact_scan () =
    let found = ref None in
    let v = ref 0 in
    while !found = None && !v < n do
      found := exact_first_improving !v;
      incr v
    done;
    !found
  in
  let apply_move mv d =
    (match mv with
    | Swap.Swap { actor; drop; add } ->
      Flexcsr.remove_edge fx actor drop;
      Flexcsr.add_edge fx actor add;
      fp := Int64.logxor !fp (edge_hash actor drop);
      fp := Int64.logxor !fp (edge_hash actor add)
    | Swap.Delete { actor; drop } ->
      Flexcsr.remove_edge fx actor drop;
      incr deletions;
      Telemetry.incr m_deletions;
      fp := Int64.logxor !fp (edge_hash actor drop));
    Log.debug (fun m -> m "move %d: %s (delta %d)" !moves (Swap.move_to_string mv) d);
    if cfg.record_trace then trace := (mv, d) :: !trace;
    incr moves;
    Telemetry.incr m_moves;
    (* deletions strictly shrink the edge set, so only swaps can revisit *)
    (match mv with
    | Swap.Swap _ when Hashtbl.mem seen !fp ->
      outcome := Dynamics.Cycled;
      push_state !fp;
      raise Exit
    | _ -> ());
    push_state !fp
  in
  let slots = if cfg.probes_per_round <= 0 then n else cfg.probes_per_round in
  let quiesce = ref 0 in
  take_sample 0;
  (try
     while !rounds < cfg.max_rounds do
       incr rounds;
       let progressed = ref false in
       for _slot = 0 to slots - 1 do
         let v = Prng.int rng n in
         match probe v with
         | Some (mv, d) ->
           apply_move mv d;
           progressed := true;
           quiesce := 0
         | None -> (
           incr quiesce;
           match cfg.confirm with
           | Quiescence p when !quiesce >= p ->
             outcome := Dynamics.Converged;
             sampled_verdict := true;
             raise Exit
           | _ -> ())
       done;
       Log.info (fun m ->
           m "round %d/%d: %d moves, %d probes" !rounds cfg.max_rounds !moves !probes);
       if cfg.trajectory_every > 0 && !rounds mod cfg.trajectory_every = 0 then
         take_sample !rounds;
       if (not !progressed) && cfg.confirm = Exact_scan then begin
         (* quiet round: confirm with the full scan, as the exact engine
            does; a found move is not applied under the sampled rule *)
         match exact_scan () with
         | None ->
           outcome := Dynamics.Converged;
           raise Exit
         | Some _ -> ()
       end
     done
   with Exit -> ());
  take_sample !rounds;
  Log.info (fun m ->
      m "%s scale dynamics: %s after %d rounds, %d probes, %d moves"
        (Game.to_string cfg.game)
        (match !outcome with
        | Dynamics.Converged ->
          if !sampled_verdict then "converged (sampled verdict)" else "converged"
        | Dynamics.Cycled -> "cycled"
        | Dynamics.Round_limit -> "round limit")
        !rounds !probes !moves);
  Telemetry.incr m_runs;
  Telemetry.add m_rounds !rounds;
  {
    outcome = !outcome;
    sampled_verdict = !sampled_verdict;
    rounds = !rounds;
    probes = !probes;
    moves = !moves;
    deletions = !deletions;
    final = fx;
    final_m = Flexcsr.m fx;
    trajectory = List.rev !samples;
    trace = List.rev !trace;
  }
