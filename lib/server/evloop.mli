(** The reactor's waiting primitive: a thin [poll(2)] binding.

    {!Unix.select} rejects descriptors at or above [FD_SETSIZE] (1024
    on Linux), which caps a select-driven event loop far below the
    1000+ concurrent connections the serving path is benchmarked at;
    [poll] carries no such limit. The binding releases the OCaml
    runtime lock while waiting, so the state's writer thread keeps
    running underneath the sleeping reactor. *)

val pollin : int
(** Interest/readiness bit: readable (also set on error/hang-up, so a
    read observes the failure). *)

val pollout : int
(** Interest/readiness bit: writable. *)

val poll : Unix.file_descr array -> int array -> int array -> int -> int
(** [poll fds events revents timeout_ms] waits until a descriptor in
    [fds] is ready for its requested [events] (a {!pollin}/{!pollout}
    mask, positionally aligned with [fds]) or until [timeout_ms]
    elapses ([-1] waits forever). Readiness is written into [revents]
    (same alignment; [0] = not ready); the result is the number of
    ready descriptors. [EINTR] returns [0] — callers simply poll
    again.
    @raise Invalid_argument when the array lengths differ. *)

val raise_fd_limit : int -> int
(** [raise_fd_limit n] raises the process's soft open-file limit
    towards [n] (clamped to the hard limit, best effort) and returns
    the resulting soft limit. Servers and sweep drivers call it so a
    conservative default [ulimit -n] does not cap the connection
    count. *)
