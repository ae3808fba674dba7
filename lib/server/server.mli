(** The network reasoning server: a single-threaded non-blocking
    reactor over a {!State.t}.

    One event-loop thread owns every connection descriptor: a
    {!Evloop.poll}-driven loop reads whatever the sockets deliver into
    per-connection {!Iobuf} read buffers, cuts complete frames
    incrementally, and coalesces any number of responses into the
    per-connection write buffer, flushed once per tick (batched wire
    writes). A connection whose output buffer crosses the high-water
    mark stops being read until it drains below the low-water mark
    (backpressure), so a slow consumer cannot balloon the server's
    memory.

    The server runs two threads: this reactor and the state's writer.
    The reactor answers every request inline — staging lines, bulk
    [LOAD] blocks (kept raw), [ROLE], [QUIT], and the reads: queries,
    UCQs, [STATS], [SNAPSHOT], [FOLLOW]. It never blocks on the state
    lock: a read tries {!State.try_read}, and while the writer holds or
    awaits the lock the request stays parked at the head of its
    connection's queue until the writer's wake-up. [COMMIT] goes to
    the writer through {!State.submit} (decoding staged [LOAD] blocks
    there); the connection waits until the result comes back through
    the self-pipe, and a full commit queue parks the [COMMIT] like a
    read. Each connection's requests are answered strictly in
    submission order (pipelining-safe).

    The trade-off: a read runs to completion on the reactor, so a long
    UCQ, a demand-mode cache miss or a [SNAPSHOT] delays every other
    connection until it finishes.

    {!stop} wakes the reactor through its self-pipe — shutdown is
    immediate, with no polling delay — closes the listener and every
    connection, saves the snapshot if configured and fails pending
    commits. *)

type address =
  | Unix_socket of string  (** path; unlinked on [listen] and [stop] *)
  | Tcp of string * int  (** host, port; port [0] picks a free one *)

val string_of_address : address -> string
(** ["unix:PATH"] / ["tcp:HOST:PORT"] — the canonical form logged at
    startup, reported by [ROLE], and embedded in a replica's redirect
    errors. *)

val address_of_string : string -> (address, string) result
(** Inverse of {!string_of_address}; also accepts the bare
    ["HOST:PORT"] and bare-path shorthands the CLI takes. *)

type role =
  | Primary  (** accepts writes, streams its journal to followers *)
  | Replica_of of string
      (** read-only; the string names the primary
          ({!string_of_address} form) and is quoted in write-redirect
          errors *)

type t

val listen :
  ?snapshot:string ->
  ?log:(string -> unit) ->
  ?role:role ->
  State.t ->
  address ->
  t
(** Binds, starts the reactor thread and returns immediately; the
    state's writer thread applies the commits. Takes over the state's
    commit hook (see {!State.set_commit_hook}) to wake the reactor.
    [snapshot] is the default path for the [SNAPSHOT] command (with no
    argument) and is written once more during {!stop}. [role] (default
    {!Primary}) makes the server refuse writes with a redirect when a
    replica. [log] receives one line per lifecycle event (default:
    drop); it may be called from the reactor or the caller of
    {!promote} or {!stop}. *)

val address : t -> address
(** The bound address — with [Tcp (_, 0)], the actual port. *)

val connections : t -> int

val role : t -> role

val promote : t -> unit
(** Warm failover: flip a replica into a writable {!Primary}. Fires
    the promote hook (once) so the replica controller stops following;
    idempotent on a primary. Safe from any thread, including a
    signal-triggered context. *)

val set_promote_hook : t -> (unit -> unit) -> unit
(** Runs when {!promote} flips the role — the replica controller
    registers its stop-following teardown here before serving
    starts. *)

val set_lag_source : t -> (unit -> int) -> unit
(** Where [STATS]' [replication_lag_epochs] and [ROLE]'s [lag=] come
    from on a replica (the controller knows the primary's last seen
    epoch). Must be cheap and thread-safe; defaults to zero. *)

val stop : t -> unit
(** Graceful shutdown: wake the reactor, stop accepting, close live
    connections, join the reactor, save the snapshot if configured,
    then shut the state down (failing pending commits, joining the
    writer). Idempotent; safe to call from a signal-triggered
    context. *)
