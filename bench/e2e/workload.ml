(* What every workload receives and returns. *)

type cfg = {
  seed : int;  (** the workload's inputs are a function of this alone *)
  seconds : float;  (** measured window of the run *)
  trace : bool;  (** also run the traced pass and report the layers *)
  toy : bool;  (** toy input sizes, for the build's own test *)
  work : string;  (** scratch directory: sockets, atlas directories *)
}

type outcome = {
  attempted : int;  (** operations whose output was checked *)
  failed : int;  (** operations with a wrong or missing output *)
  rows : Rows.row list;
}

type t = {
  name : string;
  size : cfg -> string;  (** the input size, for the header *)
  ready : cfg -> unit;
      (** what a fresh process prepares before its first operation; a
          set-up probe runs this in a child and is timed until ready *)
  run : cfg -> outcome;
}

(* The untraced window gets the whole run, or half of it when the traced
   pass shares the run. *)
let window cfg = if cfg.trace then cfg.seconds /. 2.0 else cfg.seconds

(* Set-up of workloads measured in this process: a fresh child prepares
   the same inputs and is timed until it reports ready. Returns [probe],
   which the workload calls after every operation, untimed: it spawns two
   children untimed, then times two more. The second function returns the
   timed samples.

   Why this shape: a census child starts in 0.6 ms in some stretches of
   a run and 0.8 ms in others, each a few dozen spawns long, so one burst
   at the start of a run caught one or the other and the median jumped
   by a third between runs; probes after every operation follow the whole
   window. And the first spawns after an operation ran up to twice as
   slow as the next ones, with the process's code out of the caches; a
   median over a mix of first and later spawns jumped between the two,
   so only settled spawns are timed. *)
let setup_probe cfg name =
  let times = ref [] in
  let once () =
    let t, c =
      Measure.spawn_ready
        ([ "--ready"; name; "--seed"; string_of_int cfg.seed ]
        @ if cfg.toy then [ "--toy" ] else [])
    in
    Measure.reap c;
    t
  in
  let probe () =
    ignore (once ());
    ignore (once ());
    times := once () :: once () :: !times
  in
  (probe, fun () -> Array.of_list !times)

(* The five end-to-end rows. [op_s] are per-operation latencies in
   seconds, [wall] the window they were taken in. *)
let e2e_rows w ~setup ~op_s ~wall ~rss_mb =
  let ops = Array.length op_s in
  [
    Rows.v ~samples:(Array.length setup) w "setup_s" (Stats.median setup);
    Rows.v ~samples:ops w "throughput_ops" (float_of_int ops /. wall);
    Rows.v ~samples:ops w "latency_p50_us" (Stats.percentile op_s 50.0 *. 1e6);
    Rows.v ~samples:ops w "latency_p90_us" (Stats.percentile op_s 90.0 *. 1e6);
    Rows.v ~samples:1 w "peak_rss_mb" rss_mb;
  ]

(* Rows every traced workload adds: how much of the traced end-to-end time
   the timed layers explain, and what tracing cost. *)
let trace_rows w ~covered ~traced ~untraced_p50 ~traced_p50 ~samples =
  [
    Rows.v ~samples w "layer_coverage" (covered /. traced);
    Rows.v ~samples w "trace_overhead" (traced_p50 /. untraced_p50);
  ]

let sum = Array.fold_left ( +. ) 0.0
