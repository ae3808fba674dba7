(** Shared serving state: a query backend behind single-writer /
    multi-reader discipline.

    A {!t} wraps a {!backend} — a maintained materialization
    ({!Guarded_incr.Incr.t}), the demand-driven evaluator
    ({!Guarded_incr.Demand.t}) or the finite chase — so that queries
    are answered while update batches commit:

    - {b Readers} take a shared lock ({!with_backend}, or the
      non-blocking {!try_read}) and always observe the last committed
      epoch — the writer holds the lock exclusively for the whole
      batch, so no reader ever sees a half-applied commit.
    - {b One writer}: a dedicated thread owns all mutations. {!submit}
      puts a batch on a bounded queue (admission control — a full queue
      refuses it, which is the backpressure signal) and the writer
      reports the result through a callback; {!commit} is the blocking
      form.
    - {b Atomicity}: a batch whose incremental application dies halfway
      is recovered by a from-scratch stratum recompute
      ({!Guarded_incr.Incr.refresh}) over the already-updated EDB
      before any reader reacquires the lock, so the committed-epoch
      invariant survives even failed fast paths.

    All latency/throughput counters served by the [STATS] command live
    here too. *)

open Guarded_core

type t

type backend =
  | Materialized of Guarded_incr.Incr.t
  | Demand of Guarded_incr.Demand.t
  | Chase of Guarded_incr.Chase_mat.t

val create :
  ?pool:Guarded_par.Pool.t ->
  ?queue_capacity:int ->
  ?journal_max_bytes:int ->
  Theory.t ->
  Database.t ->
  t
(** Materializes the program over the database and starts the writer
    thread. [queue_capacity] (default 64, clamped to [>= 1]) bounds the
    commit queue; [journal_max_bytes] bounds the replication journal
    (see {!Journal.create}). *)

val create_demand :
  ?pool:Guarded_par.Pool.t -> ?queue_capacity:int -> Theory.t -> Database.t -> t
(** Demand-driven serving: no fixpoint runs at startup; queries are
    answered by magic-set evaluation over the raw EDB with a tabled
    subgoal cache, commits invalidate the cache per dependency
    component. Same locking discipline as {!create}. *)

val create_chase :
  ?pool:Guarded_par.Pool.t ->
  ?limits:Guarded_chase.Engine.limits ->
  ?queue_capacity:int ->
  Theory.t ->
  Database.t ->
  t
(** Finite-chase serving: the restricted chase of the database is
    materialized and queries are answered from it directly, bypassing
    the Datalog translation (see {!Guarded_incr.Chase_mat}). Same
    locking discipline as {!create}; no journal, so no followers.
    @raise Guarded_incr.Chase_mat.Nonterminating when the initial
    chase exceeds its derivation budget. *)

val demand_mode : t -> bool

val chase_mode : t -> bool

val of_materialization :
  ?queue_capacity:int -> ?journal_max_bytes:int -> ?epoch:int -> Guarded_incr.Incr.t -> t
(** Wraps an existing materialization — the warm-restart path: the
    snapshot layer rebuilds the {!Guarded_incr.Incr.t} and serving
    starts without re-running any fixpoint. [epoch] (default 0) seeds
    the epoch counter — a replica bootstrapped from a snapshot of
    epoch [k] starts counting at [k] so journal records line up. *)

val install : t -> Guarded_incr.Incr.t -> epoch:int -> unit
(** Replaces the materialization wholesale under the exclusive lock
    and resets the epoch counter — the replica resync path, when a
    follower must re-bootstrap from a fresh snapshot mid-life. The
    journal is cleared (its run no longer leads to the new epoch).
    @raise Invalid_argument in demand mode. *)

val program : t -> Theory.t

val epoch : t -> int
(** Committed batches since startup (plus the starting epoch). *)

val journal : t -> Journal.t option
(** The replication journal — one record per committed epoch, bounded
    by bytes. [None] in demand mode. *)

val set_commit_hook : t -> (int -> unit) -> unit
(** [f epoch] runs after each commit on the writer thread, and after
    {!install} on its caller's, outside every lock — the reactor
    registers a wake-up here so followers are streamed to and parked
    requests retried without polling. Keep it cheap and
    non-blocking. *)

val with_backend : t -> (backend -> 'a) -> 'a
(** Runs the callback holding the shared lock: the backend is at the
    last committed epoch and cannot change underneath. The callback
    must not mutate it, and must not call {!commit} or {!with_backend}
    (lock-ordering: a waiting writer blocks new readers). *)

val try_read : t -> (backend -> 'a) -> 'a option
(** {!with_backend} without waiting: [None] when the writer holds the
    lock or is waiting for it. The writer calls the commit hook after
    it releases the lock, so a caller that got [None] retries on that
    signal. Same rules for the callback, except that it may call
    [try_read]. *)

val with_read : t -> (Guarded_incr.Incr.t -> 'a) -> 'a
(** {!with_backend} restricted to materialized serving — the callers
    that need the materialization itself (snapshots, direct database
    access).
    @raise Invalid_argument in demand mode. *)

type commit_result = {
  cr_added : int;
  cr_removed : int;
  cr_epoch : int;  (** the epoch this batch created *)
}

val submit :
  t ->
  (unit -> (Guarded_incr.Delta.t, string) result) ->
  ((commit_result, string) result -> unit) ->
  bool
(** [submit t build on_done] queues one batch without waiting; [false]
    when the commit queue is full (nothing is queued — retry after the
    next commit hook). The writer thread runs [build] before it takes
    the write lock — the place for expensive decoding — then applies
    the batch and calls [on_done] outside every lock, before the
    commit hook. A [build] error (or [Invalid_argument]/[Failure])
    goes to [on_done] and creates no epoch. After {!shutdown},
    [on_done] gets an [Error] at once, on the caller's thread. *)

val commit : t -> Guarded_incr.Delta.t -> (commit_result, string) result
(** {!submit}, then block until the writer applied the batch; waits
    for a free slot while the queue is full. [Error] carries the
    reason when the batch could not be applied cleanly; the state is
    still consistent afterwards. *)

val queue_depth : t -> int
val queue_capacity : t -> int

val note_query : t -> float -> unit
(** Record one served query and its latency in seconds; feeds the
    [STATS] percentiles. *)

val stats : t -> Wire.stats
(** A consistent counter snapshot, taken under the shared lock. The
    gauges the reactor owns (connections, buffered bytes, stalls,
    [LOAD] facts, role, replication) read zero; the server fills them
    in. *)

val try_stats : t -> Wire.stats option
(** {!stats} through {!try_read}: [None] instead of waiting. *)

val shutdown : t -> unit
(** Drains nothing: pending commits are failed with an error, the
    writer thread is joined. Idempotent. *)
