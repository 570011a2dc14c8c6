/* C stub for the event-loop multiplexer: poll(2). No dependency beyond
   the OCaml runtime and libc.

   Conventions shared with poller.ml:
     - file descriptors cross the boundary as plain ints (Unix.file_descr
       is an int on every Unix OCaml port);
     - interest and readiness are bitmasks: 1 = readable, 2 = writable,
       4 = error/invalid. POLLHUP reports as readable so the reader
       drains buffered bytes and then sees EOF from read();
     - errors return the negated errno instead of raising — the OCaml
       side decides what is retryable (EINTR) and what is fatal, without
       needing caml/unixsupport.h;
     - the wait releases the OCaml runtime lock, so other domains keep
       running (and stop-the-world GC is never blocked on a parked event
       loop). */

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/threads.h>

#include <errno.h>
#include <poll.h>

#define BNCG_EV_READ 1
#define BNCG_EV_WRITE 2
#define BNCG_EV_ERROR 4

/* poll(2): fds/events are int arrays of length >= n (events in the
   bitmask convention above), revents is filled on return. Returns the
   ready count, or -errno. The pollfd array is copied onto the C heap
   before the runtime lock is released — the OCaml arrays may move
   during the wait. */
CAMLprim value bncg_poll(value vfds, value vevents, value vrevents, value vn,
                         value vtimeout_ms)
{
  CAMLparam5(vfds, vevents, vrevents, vn, vtimeout_ms);
  int n = Int_val(vn);
  int timeout = Int_val(vtimeout_ms);
  struct pollfd *pfds;
  int ret, i;

  if (n < 0 || (mlsize_t)n > Wosize_val(vfds) ||
      (mlsize_t)n > Wosize_val(vevents) || (mlsize_t)n > Wosize_val(vrevents))
    caml_invalid_argument("Poller: inconsistent poll array sizes");

  pfds = caml_stat_alloc(sizeof(struct pollfd) * (n > 0 ? n : 1));
  for (i = 0; i < n; i++) {
    int ev = Int_val(Field(vevents, i));
    pfds[i].fd = Int_val(Field(vfds, i));
    pfds[i].events = ((ev & BNCG_EV_READ) ? POLLIN : 0) |
                     ((ev & BNCG_EV_WRITE) ? POLLOUT : 0);
    pfds[i].revents = 0;
  }

  caml_release_runtime_system();
  ret = poll(pfds, (nfds_t)n, timeout);
  caml_acquire_runtime_system();

  if (ret < 0) {
    int e = errno;
    caml_stat_free(pfds);
    CAMLreturn(Val_int(-e));
  }
  for (i = 0; i < n; i++) {
    int rev = 0;
    if (pfds[i].revents & (POLLIN | POLLHUP)) rev |= BNCG_EV_READ;
    if (pfds[i].revents & POLLOUT) rev |= BNCG_EV_WRITE;
    if (pfds[i].revents & (POLLERR | POLLNVAL)) rev |= BNCG_EV_ERROR;
    Field(vrevents, i) = Val_int(rev);
  }
  caml_stat_free(pfds);
  CAMLreturn(Val_int(ret));
}
