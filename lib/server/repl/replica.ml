(** Replica controller; see the interface for the lifecycle. *)

module Backoff = Guarded_server.Backoff
module Client = Guarded_server.Client
module Server = Guarded_server.Server
module State = Guarded_server.State
module Wire = Guarded_server.Wire
module Incr = Guarded_incr.Incr

type t = {
  server : Server.t;
  state : State.t;
  client : Client.t;  (** the follower stream; the replay thread's after start *)
  pool : Guarded_par.Pool.t option;
  policy : Failover.policy;
  log : string -> unit;
  last_seen : int Atomic.t;  (** primary's newest epoch heard of *)
  fo_mutex : Mutex.t;
  mutable fo : Failover.state;
  mutable stopping : bool;
  mutable replayer : Thread.t option;
}

let get_fo t =
  Mutex.lock t.fo_mutex;
  let s = t.fo in
  Mutex.unlock t.fo_mutex;
  s

let set_fo t s =
  Mutex.lock t.fo_mutex;
  t.fo <- s;
  Mutex.unlock t.fo_mutex

let fire t ev = set_fo t (Failover.step t.policy (get_fo t) ev)

let server t = t.server
let state t = t.state
let failover_state t = get_fo t
let lag t = max 0 (Atomic.get t.last_seen - State.epoch t.state)

let saw_epoch t e =
  let rec bump () =
    let cur = Atomic.get t.last_seen in
    if e > cur && not (Atomic.compare_and_set t.last_seen cur e) then bump ()
  in
  bump ()

(* One dial per call; the controller owns the pacing between calls. *)
let one_dial = Backoff.make ~attempts:1 ()

(* ------------------------------------------------------------------ *)
(* Replay thread                                                       *)

(* Applies pushed records until the stream dies, then walks the
   failover machine. Records replay through the replica's own commit
   path — same single-writer discipline as a primary — so committed
   epochs line up one-to-one with the primary's. *)
let rec stream t =
  match Client.recv t.client with
  | exception Client.Connection_lost msg ->
    if not t.stopping then t.log (Fmt.str "stream lost: %s" msg);
    reconnect t
  | Wire.Journal_rec { jr_epoch; jr_delta } ->
    saw_epoch t jr_epoch;
    let expected = State.epoch t.state + 1 in
    if jr_epoch < expected then stream t (* duplicate after a resume; drop *)
    else if jr_epoch > expected then begin
      t.log (Fmt.str "journal gap: expected epoch %d, got %d; resyncing" expected jr_epoch);
      resync t
    end
    else begin
      (match State.commit t.state jr_delta with
      | Ok r ->
        if r.State.cr_epoch <> jr_epoch then
          t.log (Fmt.str "replay skew: applied %d as local epoch %d" jr_epoch r.State.cr_epoch)
      | Error msg ->
        (* The primary journalled this epoch even though its fast path
           fell back; our commit did the same recovery, the stores
           still agree. *)
        t.log (Fmt.str "replay: epoch %d applied via fallback: %s" jr_epoch msg));
      stream t
    end
  | Wire.Failed msg ->
    (* In-stream ERROR: the primary truncated its journal under us. *)
    t.log (Fmt.str "primary refused the stream: %s" msg);
    resync t
  | _ ->
    t.log "off-protocol frame on the follower stream; resyncing";
    resync t

(* Drop the connection and re-handshake from the local epoch — a fresh
   connection, because the old one may still have stale [JOURNAL]
   frames in flight that would be misread as the handshake reply. *)
and resync t =
  Client.shutdown t.client;
  reconnect t

and rebase t =
  let since = State.epoch t.state in
  match
    Bootstrap.handshake ?pool:t.pool ~sigma:(State.program t.state) ~since t.client
  with
  | Ok (Bootstrap.Reuse primary_epoch) ->
    saw_epoch t primary_epoch;
    t.log (Fmt.str "resumed journal stream at epoch %d (primary at %d)" since primary_epoch);
    stream t
  | Ok (Bootstrap.Image (epoch, incr)) ->
    State.install t.state incr ~epoch;
    saw_epoch t epoch;
    t.log (Fmt.str "re-bootstrapped from wire snapshot at epoch %d" epoch);
    stream t
  | Error msg ->
    (* Protocol-level refusal (program mismatch, replica ahead of a
       reset primary, corrupt image): retrying cannot fix it. *)
    t.log (Fmt.str "handshake rejected: %s; follower stopping" msg);
    fire t Failover.Stop
  | exception Client.Connection_lost _ -> reconnect t

(* Walk Reconnecting(n) states: sleep the schedule's pause, try one
   dial. [Backoff.delay] is indexed by the current attempt number [n],
   so a policy with [attempts = N] performs exactly N dials; the
   machine's [step] caps [n] before the schedule runs dry, and the
   [None] arm below is only a guard against a policy mutated under
   us. *)
and reconnect t =
  fire t Failover.Connection_down;
  let rec go () =
    if t.stopping then fire t Failover.Stop
    else
      match get_fo t with
      | Failover.Streaming -> rebase t
      | Failover.Stopped -> t.log "follower stopped: primary unreachable and auto-promote is off"
      | Failover.Promoted ->
        t.log "failover: retry budget spent, promoting";
        Server.promote t.server
      | Failover.Reconnecting n -> (
        match Backoff.delay t.policy.Failover.retry n with
        | None ->
          (* budget spent: the step lands in the policy's terminal *)
          fire t Failover.Retry_failed;
          go ()
        | Some pause -> (
          Thread.delay pause;
          match Client.reconnect ~backoff:one_dial t.client with
          | () ->
            fire t Failover.Connection_up;
            go ()
          | exception Client.Connection_lost _ ->
            fire t Failover.Retry_failed;
            go ()))
  in
  go ()

let replay_thread t =
  match stream t with
  | () -> ()
  | exception e ->
    (* Never let the thread die silently mid-serving. *)
    t.log (Fmt.str "replay thread died: %s" (Printexc.to_string e));
    fire t Failover.Stop

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let promote_locked t =
  (* Promote hook runs inside Server.promote exactly once per flip. *)
  t.stopping <- true;
  set_fo t (Failover.step t.policy (get_fo t) Failover.Promote);
  Client.shutdown t.client

let start ?pool ?(log = ignore) ?queue_capacity ?journal_max_bytes
    ?(policy = Failover.default_policy) ?local ~primary addr =
  match Client.connect primary with
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Fmt.str "cannot reach primary %s: %s" (Server.string_of_address primary)
         (Unix.error_message e))
  | client -> (
    let bootstrap () =
      match local with
      | None -> (
        match Bootstrap.handshake ?pool ~since:(-1) client with
        | Ok (Bootstrap.Image (epoch, incr)) -> Ok (epoch, incr)
        | Ok (Bootstrap.Reuse _) -> Error "primary answered FOLLOW -1 without a snapshot"
        | Error _ as e -> e)
      | Some (sigma, db) -> (
        let incr = Incr.materialize ?pool sigma db in
        match Bootstrap.handshake ?pool ~sigma ~since:0 client with
        | Ok (Bootstrap.Reuse _) -> Ok (0, incr)
        | Ok (Bootstrap.Image (epoch, incr)) -> Ok (epoch, incr)
        | Error _ as e -> e)
    in
    match bootstrap () with
    | exception Client.Connection_lost msg ->
      Client.close client;
      Error (Fmt.str "primary hung up during bootstrap: %s" msg)
    | Error msg ->
      Client.close client;
      Error msg
    | Ok (epoch, incr) ->
      let state = State.of_materialization ?queue_capacity ?journal_max_bytes ~epoch incr in
      let server =
        Server.listen ~log
          ~role:(Server.Replica_of (Server.string_of_address primary))
          state addr
      in
      let t =
        {
          server;
          state;
          client;
          pool;
          policy;
          log;
          last_seen = Atomic.make epoch;
          fo_mutex = Mutex.create ();
          fo = Failover.Streaming;
          stopping = false;
          replayer = None;
        }
      in
      Server.set_lag_source server (fun () -> lag t);
      Server.set_promote_hook server (fun () -> promote_locked t);
      t.replayer <- Some (Thread.create replay_thread t);
      Ok t)

let promote t = Server.promote t.server

let stop t =
  if not t.stopping then begin
    t.stopping <- true;
    fire t Failover.Stop
  end;
  Client.shutdown t.client;
  (match t.replayer with
  | Some th ->
    t.replayer <- None;
    Thread.join th
  | None -> ());
  Client.close t.client;
  Server.stop t.server
