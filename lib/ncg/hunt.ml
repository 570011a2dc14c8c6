let log_src = Logs.Src.create "bncg.hunt" ~doc:"equilibrium search"

module Log = (val Logs.src_log log_src)

let m_steps = Telemetry.counter "hunt.steps"

let m_restarts = Telemetry.counter "hunt.restarts"

let m_candidates = Telemetry.counter "hunt.candidates_scored"

type config = {
  game : Game.t;
  n : int;
  target_diameter : int;
  steps : int;
  restarts : int;
  initial_temperature : float;
}

let default_config ?(game = Game.Sum) ~n ~target_diameter () =
  {
    game;
    n;
    target_diameter;
    steps = 4000;
    restarts = 4;
    initial_temperature = 2.0;
  }

type result = {
  found : Graph.t option;
  best_violations : int;
  evaluated : int;
}

(* Objective: lexicographic (diameter shortfall, violations), folded into a
   single float so annealing can compare. A huge weight keeps the diameter
   constraint dominant. *)
let score cfg g =
  match Metrics.diameter g with
  | None -> infinity
  | Some d ->
    let shortfall = max 0 (cfg.target_diameter - d) in
    (1000.0 *. float_of_int shortfall)
    +. float_of_int (Equilibrium.violating_agents cfg.game g)

(* neighbor move: toggle one vertex pair, rejecting toggles that disconnect
   or drop the graph below the target diameter too badly *)
let propose rng g =
  let n = Graph.n g in
  let h = Graph.copy g in
  let rec attempt tries =
    if tries = 0 then None
    else begin
      let u = Prng.int rng n and v = Prng.int rng n in
      if u = v then attempt (tries - 1)
      else if Graph.mem_edge h u v then begin
        Graph.remove_edge h u v;
        if Components.is_connected h then Some h
        else begin
          Graph.add_edge h u v;
          attempt (tries - 1)
        end
      end
      else begin
        Graph.add_edge h u v;
        Some h
      end
    end
  in
  attempt 32

let run rng cfg =
  if cfg.n < 2 then invalid_arg "Hunt.run: n too small";
  let evaluated = ref 0 in
  let best_violations = ref max_int in
  let found = ref None in
  let verify g = Equilibrium.is_equilibrium cfg.game g in
  let restart = ref 0 in
  while !found = None && !restart < cfg.restarts do
    Telemetry.incr m_restarts;
    (* seed state: a random connected graph with a longish backbone so the
       diameter constraint starts nearly satisfied. The edge count is
       capped after the draw, so the stream is the same at every n; the
       cap binds only below n = 5 *)
    let g =
      ref
        (if Prng.bool rng then Random_graphs.tree rng cfg.n
         else
           Random_graphs.connected_gnm rng cfg.n
             (min (cfg.n + Prng.int rng cfg.n) (cfg.n * (cfg.n - 1) / 2)))
    in
    let current = ref (score cfg !g) in
    incr evaluated;
    let step = ref 0 in
    while !found = None && !step < cfg.steps do
      incr step;
      let temperature =
        cfg.initial_temperature
        *. (1.0 -. (float_of_int !step /. float_of_int cfg.steps))
        +. 0.01
      in
      (match propose rng !g with
      | None -> ()
      | Some candidate ->
        let s = score cfg candidate in
        incr evaluated;
        let accept =
          s <= !current
          || Prng.float rng 1.0 < exp ((!current -. s) /. temperature)
        in
        if accept then begin
          g := candidate;
          current := s
        end;
        (match Metrics.diameter candidate with
        | Some d when d >= cfg.target_diameter ->
          let violations = int_of_float (Float.min s 1e9) mod 1000 in
          if violations < !best_violations then begin
            best_violations := violations;
            Log.debug (fun m ->
                m "restart %d step %d: best candidate now %d violating agents"
                  !restart !step violations)
          end;
          if s = 0.0 && verify candidate then begin
            Log.info (fun m ->
                m "verified %s equilibrium of diameter >= %d on %d vertices after %d candidates"
                  (Game.to_string cfg.game)
                  cfg.target_diameter cfg.n !evaluated);
            found := Some candidate
          end
        | Some _ | None -> ()))
    done;
    Telemetry.add m_steps !step;
    incr restart
  done;
  Telemetry.add m_candidates !evaluated;
  {
    found = !found;
    best_violations = (if !best_violations = max_int then -1 else !best_violations);
    evaluated = !evaluated;
  }

let hunt_sum_diameter rng ~n ~target_diameter ?(steps = 4000) () =
  run rng { (default_config ~n ~target_diameter ()) with steps }
