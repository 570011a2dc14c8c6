(* Clocks, sample statistics and child processes shared by the workloads.
   Every timing of the benchmark is taken in this directory, around calls
   into the layers' public functions; nothing under lib/ is instrumented
   for it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (seconds_since t0, r)

(* Repeat [f] until [seconds] have passed (at least once) and return the
   per-call times, in call order. Each result goes to [check], untimed,
   and is then dropped; a full major collection between calls starts each
   one on a clean heap, as a fresh process would, so neither the time nor
   the peak memory of a call depends on the garbage of the ones before. *)
let repeat_for ~seconds ~check f =
  let t0 = now_ns () in
  let rec go acc =
    if acc <> [] && seconds_since t0 >= seconds then Array.of_list (List.rev acc)
    else begin
      let t, r = timed f in
      check r;
      Gc.full_major ();
      go (t :: acc)
    end
  in
  go []

(* --- statistics -------------------------------------------------------- *)

(* First and third quartile by the "exclusive" method — the default of
   Python's [statistics.quantiles(xs, n=4)], so spreads read the same as
   in any notebook that re-derives them; [Stats] has the mean, median and
   percentiles. Needs two samples. *)
let quartiles xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 3)
  end

(* --- processes --------------------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let kb =
    In_channel.with_open_text path (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> failwith ("no VmHWM in " ^ path)
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
          | Some _ -> scan ()
        in
        scan ())
  in
  float_of_int kb /. 1024.0

type child = { pid : int; to_child : out_channel; from_child : in_channel }

(* The benchmark's children are this executable in another mode. The
   child's stdin is its lifeline: it stops when the parent closes it (or
   dies), so no child outlives the run. *)
let spawn args =
  let exe = Sys.executable_name in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    to_child = Unix.out_channel_of_descr in_w;
    from_child = Unix.in_channel_of_descr out_r;
  }

let reap c =
  close_out_noerr c.to_child;
  close_in_noerr c.from_child;
  match snd (Unix.waitpid [] c.pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED k -> failwith (Printf.sprintf "child %d exited %d" c.pid k)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    failwith (Printf.sprintf "child %d killed by signal %d" c.pid s)

(* Spawn a child and wait for its "ready" line: the set-up time of
   whatever the child prepares before it can take work. *)
let spawn_ready args =
  let t0 = now_ns () in
  let c = spawn args in
  match input_line c.from_child with
  | "ready" -> (seconds_since t0, c)
  | line ->
    reap c;
    failwith ("child said " ^ line ^ " instead of ready")
  | exception End_of_file ->
    reap c;
    failwith "child exited before it was ready"

(* Child side of [spawn_ready]. *)
let announce_ready () =
  print_endline "ready";
  flush stdout

(* Child side of the lifeline: block until the parent closes stdin
   ([`Stop]: shut down cleanly) or sends "quit" ([`Quit]: nothing worth
   keeping, exit at once). *)
let wait_for_parent () =
  match input_line stdin with
  | "quit" -> `Quit
  | _ | (exception End_of_file) -> `Stop

(* Parent side of [`Quit]. *)
let quit c =
  output_string c.to_child "quit\n";
  flush c.to_child;
  reap c

(* A set-up done in a burst is timed over [setup_trials] trials and
   reported as the median. Three untimed trials go first: the first
   spawns of a burst ran about twice as slow as the settled ones (1.1-1.5
   ms against 0.6 ms for a bare process start on a 2-core VM), and how
   many of them a run's median caught made set-up jump from run to
   run. *)
let setup_trials = 9

let setup_times spawn_once =
  for _ = 1 to 3 do
    ignore (spawn_once ())
  done;
  Array.init setup_trials (fun _ -> spawn_once ())

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
