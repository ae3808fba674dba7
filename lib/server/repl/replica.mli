(** A warm read replica: bootstrap from the primary, serve read-only
    queries, replay the journal stream, survive the primary's death.

    {!start} runs the whole bootstrap synchronously — dial the primary,
    {!Bootstrap.handshake}, build a {!Guarded_server.State} at the
    handshake's base epoch — and only then opens the serving socket, so
    a replica never answers from a state it has not finished
    installing. A background replay thread then applies each pushed
    [JOURNAL] record through the replica's own commit path in strict
    epoch order: both sides bump one epoch per batch, so after record
    [e] the replica's committed epoch {e is} [e], and
    [replication_lag_epochs] in [STATS] is exactly the primary's newest
    known epoch minus the local one.

    Writes sent to the replica are refused by the server layer with a
    [redirect] error naming the primary. When the stream drops, the
    controller walks the {!Failover} machine: re-dial under the
    policy's backoff, re-handshake from the local epoch (journal resume
    when covered, full snapshot re-install otherwise), and on an
    exhausted budget either stop following or — with
    [auto_promote] — promote itself into a writable primary. An
    explicit [PROMOTE] (wire verb or {!promote}) takes over
    immediately. *)

open Guarded_core
module Server = Guarded_server.Server
module State = Guarded_server.State

type t

val start :
  ?pool:Guarded_par.Pool.t ->
  ?log:(string -> unit) ->
  ?queue_capacity:int ->
  ?journal_max_bytes:int ->
  ?policy:Failover.policy ->
  ?local:(Theory.t * Database.t) ->
  primary:Server.address ->
  Server.address ->
  (t, string) result
(** [start ~primary addr] bootstraps from [primary] and serves on
    [addr]. Without [local] the replica asks for a full wire snapshot
    ([FOLLOW -1]); with [local (sigma, db)] it first materializes
    [sigma] over [db] itself and offers its epoch-0 state ([FOLLOW 0])
    — the primary streams the journal when it still covers epoch 1,
    and falls back to a snapshot when it does not. [Error] covers an
    unreachable primary, a program mismatch and a corrupt image; the
    serving socket is not opened in that case. *)

val server : t -> Server.t
val state : t -> State.t

val lag : t -> int
(** Primary's newest epoch this replica has heard of minus the local
    committed epoch; [0] when fully caught up. *)

val failover_state : t -> Failover.state

val promote : t -> unit
(** Stop following and flip the server into a writable primary — warm
    failover. Idempotent. *)

val stop : t -> unit
(** Stop following and shut the server down (joins the replay thread).
    Idempotent. *)
