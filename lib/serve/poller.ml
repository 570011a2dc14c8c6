(* poll(2) over a registration table; see poller_stubs.c for the
   bitmask/-errno conventions. *)

external fd_int : Unix.file_descr -> int = "%identity"

external int_fd : int -> Unix.file_descr = "%identity"

external raw_poll : int array -> int array -> int array -> int -> int -> int
  = "bncg_poll"

let ev_read = 1

let ev_write = 2

let ev_error = 4

(* EINTR is 4 on every platform this builds on (Linux, the BSDs, macOS);
   the stub returns -errno, and an interrupted wait is just "0 ready". *)
let errno_eintr = 4

let events_of ~read ~write =
  (if read then ev_read else 0) lor if write then ev_write else 0

type t = {
  mutable fds : int array;  (* registered fds, packed in [0, n) *)
  mutable events : int array;  (* interest bitmask per slot *)
  mutable revents : int array;
  mutable n : int;
  index : (int, int) Hashtbl.t;  (* fd -> slot *)
  max_events : int;
  ready_fds : int array;
  ready_flags : int array;
  mutable nready : int;
}

let create ?(max_events = 256) () =
  if max_events < 1 then invalid_arg "Poller.create: max_events < 1";
  {
    fds = Array.make 16 (-1);
    events = Array.make 16 0;
    revents = Array.make 16 0;
    n = 0;
    index = Hashtbl.create 16;
    max_events;
    ready_fds = Array.make max_events (-1);
    ready_flags = Array.make max_events 0;
    nready = 0;
  }

let close t =
  t.n <- 0;
  t.nready <- 0;
  Hashtbl.reset t.index

let add t fd ~read ~write =
  let fd = fd_int fd in
  if Hashtbl.mem t.index fd then
    failwith (Printf.sprintf "Poller: fd %d already registered" fd);
  if t.n = Array.length t.fds then begin
    let grow a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.fds <- grow t.fds (-1);
    t.events <- grow t.events 0;
    t.revents <- grow t.revents 0
  end;
  t.fds.(t.n) <- fd;
  t.events.(t.n) <- events_of ~read ~write;
  Hashtbl.replace t.index fd t.n;
  t.n <- t.n + 1

let modify t fd ~read ~write =
  let fd = fd_int fd in
  match Hashtbl.find_opt t.index fd with
  | None -> failwith (Printf.sprintf "Poller: fd %d not registered" fd)
  | Some slot -> t.events.(slot) <- events_of ~read ~write

let remove t fd =
  let fd = fd_int fd in
  match Hashtbl.find_opt t.index fd with
  | None -> ()
  | Some slot ->
    Hashtbl.remove t.index fd;
    let last = t.n - 1 in
    if slot < last then begin
      (* keep [0, n) packed: move the last registration into the hole *)
      t.fds.(slot) <- t.fds.(last);
      t.events.(slot) <- t.events.(last);
      Hashtbl.replace t.index t.fds.(slot) slot
    end;
    t.fds.(last) <- -1;
    t.n <- last

let wait t ~timeout_ms =
  t.nready <- 0;
  let n = raw_poll t.fds t.events t.revents t.n timeout_ms in
  if n > 0 then begin
    (* the ready batch is clamped to max_events; level-triggering
       re-reports the remainder on the next call *)
    let out = ref 0 in
    let i = ref 0 in
    while !out < t.max_events && !i < t.n do
      let rev = t.revents.(!i) in
      if rev <> 0 then begin
        t.ready_fds.(!out) <- t.fds.(!i);
        t.ready_flags.(!out) <- rev;
        incr out
      end;
      incr i
    done;
    t.nready <- !out
  end
  else if n < 0 && n <> -errno_eintr then
    failwith (Printf.sprintf "Poller: poll failed (errno %d)" (-n));
  t.nready

let check_ready t i =
  if i < 0 || i >= t.nready then invalid_arg "Poller: ready index out of range"

let ready_fd t i =
  check_ready t i;
  int_fd t.ready_fds.(i)

let ready_read t i =
  check_ready t i;
  t.ready_flags.(i) land ev_read <> 0

let ready_write t i =
  check_ready t i;
  t.ready_flags.(i) land ev_write <> 0

let ready_error t i =
  check_ready t i;
  t.ready_flags.(i) land ev_error <> 0

(* --- one-shot waits ------------------------------------------------------ *)

let wait_one fd interest seconds =
  let fds = [| fd_int fd |] in
  let events = [| interest |] in
  let revents = [| 0 |] in
  let timeout_ms =
    if seconds < 0.0 then -1 else int_of_float (Float.ceil (seconds *. 1000.0))
  in
  let n = raw_poll fds events revents 1 timeout_ms in
  n > 0 && revents.(0) land (interest lor ev_error) <> 0

let wait_readable fd seconds = wait_one fd ev_read seconds

let wait_writable fd seconds = wait_one fd ev_write seconds
