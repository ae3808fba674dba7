(** The poll(2)-driven reactor; see the interface for the design. *)

open Guarded_core
module Incr = Guarded_incr.Incr
module Demand = Guarded_incr.Demand
module Chase_mat = Guarded_incr.Chase_mat
module Delta = Guarded_incr.Delta

type address = Unix_socket of string | Tcp of string * int

let string_of_address = function
  | Unix_socket p -> "unix:" ^ p
  | Tcp (h, p) -> Fmt.str "tcp:%s:%d" h p

(* Accepts the printed form, plus the bare "host:port" and bare-path
   shorthands the CLI takes. *)
let address_of_string s =
  let s = String.trim s in
  let drop n = String.sub s n (String.length s - n) in
  if String.length s > 5 && String.sub s 0 5 = "unix:" then Stdlib.Ok (Unix_socket (drop 5))
  else
    let explicit_tcp = String.length s > 4 && String.sub s 0 4 = "tcp:" in
    let body = if explicit_tcp then drop 4 else s in
    match String.rindex_opt body ':' with
    | Some i -> (
      let host = String.sub body 0 i in
      let port = String.sub body (i + 1) (String.length body - i - 1) in
      match int_of_string_opt port with
      | Some p when host <> "" && p >= 0 -> Stdlib.Ok (Tcp (host, p))
      | _ ->
        if explicit_tcp then Error (Fmt.str "address %S: expected tcp:HOST:PORT" s)
        else Stdlib.Ok (Unix_socket s))
    | None ->
      if explicit_tcp then Error (Fmt.str "address %S: expected tcp:HOST:PORT" s)
      else if s = "" then Error "empty address"
      else Stdlib.Ok (Unix_socket s)

(* Whether this server accepts writes; a replica names its primary so
   write attempts can be redirected there. *)
type role = Primary | Replica_of of string

(* Backpressure water marks on a connection's output buffer: reads
   pause above [high_water] and resume once a flush drains the buffer
   to [low_water]. *)
let high_water = 1 lsl 20
let low_water = 64 * 1024

(* A connection may pipeline requests ahead of their answers; past
   this many parsed-but-unanswered requests its reads pause too (the
   output-side water marks cannot see requests whose responses do not
   exist yet). *)
let max_pending = 4096

(* Staged updates live on the connection, as reversed lists: +/-
   accumulate here in O(1) per fact, LOAD blocks are kept raw (staging
   one is a pointer push, decoding waits for the writer thread), and
   only COMMIT hands them on. Only the reactor touches a session. *)
type session = {
  mutable adds_rev : Atom.t list;
  mutable dels_rev : Atom.t list;
  mutable loads_rev : Wire.fact_block list;
}

(* Parsed input units, kept in arrival order so responses — including
   parse errors — come back in the order the requests went in. [Bad]
   answers with ERROR and keeps the connection; [Fatal] answers with
   ERROR and closes it (oversized frame: the payload was never
   buffered, so nothing after it can be framed again). *)
type pitem =
  | Req of Wire.request
  | Bad of string
  | Fatal of string

type conn = {
  cid : int;  (** table key — not the fd, which the kernel reuses *)
  fd : Unix.file_descr;
  rbuf : Iobuf.t;
  wbuf : Iobuf.t;
  pending : pitem Queue.t;
  mutable busy : bool;  (** the writer owns this connection's COMMIT *)
  mutable eof : bool;  (** no more input will be read *)
  mutable closing : bool;  (** close once [wbuf] drains *)
  mutable stalled : bool;  (** reads paused by backpressure *)
  mutable closed : bool;
  mutable follow_from : int option;
      (** a follower: next journal epoch to stream to this connection *)
  session : session;
}

type t = {
  state : State.t;
  snapshot_path : string option;
  log : string -> unit;
  listener : Unix.file_descr;
  bound : address;
  (* Self-pipe: the writer thread (commit results, epochs) and [stop]
     write a byte to interrupt the reactor's poll — shutdown,
     completions and parked requests never wait out a timeout. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* Reactor-owned; no other thread touches these. *)
  conns : (int, conn) Hashtbl.t;
  mutable next_cid : int;
  mutable m_total_connections : int;
  mutable m_backpressure_stalls : int;
  mutable m_load_facts : int;
  (* Writer -> reactor: COMMIT results. *)
  completions : (conn * Wire.response) Queue.t;
  comp_mutex : Mutex.t;
  (* Read from other threads. The role is flipped by PROMOTE (possibly
     from a signal context); [lag_source]/[promote_hook] are wired by
     the replica controller before serving starts. *)
  m_connections_open : int Atomic.t;
  m_role : role Atomic.t;
  mutable lag_source : unit -> int;
  mutable promote_hook : unit -> unit;
  stopping : bool Atomic.t;
  mutable reactor : Thread.t option;
  stop_mutex : Mutex.t;
  mutable stopped : bool;
}

let address t = t.bound
let connections t = Atomic.get t.m_connections_open
let role t = Atomic.get t.m_role
let set_lag_source t f = t.lag_source <- f
let set_promote_hook t f = t.promote_hook <- f

let role_reply t =
  let epoch = State.epoch t.state in
  match role t with
  | Primary ->
    Wire.Role_reply { rr_primary = true; rr_epoch = epoch; rr_lag = 0; rr_primary_addr = None }
  | Replica_of addr ->
    Wire.Role_reply
      { rr_primary = false; rr_epoch = epoch; rr_lag = t.lag_source (); rr_primary_addr = Some addr }

let wake_byte = Bytes.make 1 '\001'

(* Best effort: a full pipe already guarantees a pending wakeup, and a
   closed one means the reactor is gone. *)
let wake t =
  match Unix.write t.wake_w wake_byte 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()

(* Warm failover: flip a replica into a writable primary. The hook
   (the replica controller's stop-following) runs once, on whichever
   thread promoted first — the reactor for a PROMOTE verb, a signal
   context when the primary's death is detected. *)
let promote t =
  match Atomic.exchange t.m_role Primary with
  | Primary -> ()
  | Replica_of _ ->
    t.promote_hook ();
    t.log "promoted to primary";
    wake t

(* ------------------------------------------------------------------ *)
(* Reads, answered inline on the reactor                               *)

(* Each returns [None] when the writer holds or awaits the state lock:
   the request stays parked at the head of its connection's queue and
   is retried once the writer wakes the reactor. *)

(* [? REL(pattern)]: stream index candidates, confirm each against the
   pattern, keep the matched argument tuples. Constants-only, like
   [Incr.answers]. *)
let pattern_answers incr rel pattern =
  let pat = Atom.make rel pattern in
  let db = Incr.db incr in
  let out = ref [] in
  Database.iter_candidates db pat (fun fact ->
      if Atom.ann fact = [] then
        match Subst.match_atom Subst.empty pat fact with
        | Some _ when List.for_all (function Term.Const _ -> true | _ -> false) (Atom.args fact)
          ->
          out := Atom.args fact :: !out
        | _ -> ());
  List.sort_uniq (List.compare Term.compare) !out

let eval_query state (req : Wire.request) =
  let t0 = Unix.gettimeofday () in
  let resp =
    State.try_read state (fun backend ->
        match (req, backend) with
        | Wire.Query { rel; pattern = None }, State.Materialized incr ->
          Wire.Answers (Incr.answers incr ~query:rel)
        | Wire.Query { rel; pattern = None }, State.Demand d ->
          Wire.Answers (Demand.answers d ~query:rel)
        | Wire.Query { rel; pattern = None }, State.Chase c ->
          Wire.Answers (Chase_mat.answers c ~query:rel)
        | Wire.Query { rel; pattern = Some pat }, State.Materialized incr ->
          Wire.Answers (pattern_answers incr rel pat)
        | Wire.Query { rel; pattern = Some pat }, State.Demand d ->
          Wire.Answers (Demand.pattern_answers d ~rel ~pattern:pat)
        | Wire.Query { rel; pattern = Some pat }, State.Chase c ->
          Wire.Answers (Chase_mat.pattern_answers c ~rel ~pattern:pat)
        | Wire.Cq (ucq, _), _ ->
          let cq_answers (cq : Guarded_cq.Cq.t) =
            match backend with
            | State.Materialized incr ->
              Incr.cq_answers incr ~body:cq.body ~answer_vars:cq.answer_vars
            | State.Demand d -> Demand.cq_answers d ~body:cq.body ~answer_vars:cq.answer_vars
            | State.Chase c -> Chase_mat.cq_answers c ~body:cq.body ~answer_vars:cq.answer_vars
          in
          let tuples = List.concat_map cq_answers ucq.Guarded_cq.Ucq.disjuncts in
          Wire.Answers (List.sort_uniq (List.compare Term.compare) tuples)
        | _ -> assert false)
  in
  if Option.is_some resp then State.note_query state (Unix.gettimeofday () -. t0);
  resp

(* The reactor's own gauges, spliced into the state's counters. *)
let stats_reply t (s : Wire.stats) =
  let bytes = Hashtbl.fold (fun _ c acc -> acc + Iobuf.length c.wbuf) t.conns 0 in
  let replicas =
    Hashtbl.fold (fun _ c acc -> if c.follow_from <> None then acc + 1 else acc) t.conns 0
  in
  let open_ = connections t in
  let role, lag = match role t with Primary -> (0, 0) | Replica_of _ -> (1, t.lag_source ()) in
  Wire.Stats_reply
    {
      s with
      s_connections = open_;
      s_total_connections = t.m_total_connections;
      s_connections_open = open_;
      s_bytes_buffered = bytes;
      s_backpressure_stalls = t.m_backpressure_stalls;
      s_load_facts = t.m_load_facts;
      s_role = role;
      s_replicas_connected = replicas;
      s_replication_lag_epochs = lag;
    }

let save_dump t path (sigma, dump) =
  Snapshot.save ~path sigma dump;
  t.log (Fmt.str "snapshot saved to %s (%d EDB facts)" path (Database.cardinal dump.Incr.d_edb))

let dump_of incr = (Incr.program incr, Incr.dump incr)

let snapshot_command t path =
  if State.demand_mode t.state then
    (* Nothing is materialized, so there is no per-stratum dump to
       persist; the EDB is the client's data, not ours to snapshot. *)
    Some (Wire.Failed "snapshots are not available in demand mode")
  else if State.chase_mode t.state then
    (* The chase store holds nulls, which the snapshot codec does not
       carry; re-chasing the EDB at startup is the recovery path. *)
    Some (Wire.Failed "snapshots are not available in chase mode")
  else
    match (path, t.snapshot_path) with
    | None, None ->
      Some (Wire.Failed "no snapshot path configured (start with --snapshot or give one)")
    | Some p, _ | None, Some p ->
      State.try_read t.state (function
        | State.Materialized incr -> dump_of incr
        | State.Demand _ | State.Chase _ -> assert false)
      |> Option.map (fun dump ->
             (* The dump is taken under the lock, the file written after. *)
             match save_dump t p dump with () -> Wire.Ok | exception Sys_error m -> Wire.Failed m)

let follow_command t c since =
  if State.demand_mode t.state then
    Some (Wire.Failed "replication is not available in demand mode")
  else if State.chase_mode t.state then
    Some (Wire.Failed "replication is not available in chase mode")
  else
    (* Under the shared lock the decision is consistent: the epoch
       cannot advance while we check journal coverage or dump the
       materialization, so the follower misses no record between its
       base and the stream. *)
    State.try_read t.state (fun backend ->
        let incr =
          match backend with
          | State.Materialized i -> i
          | State.Demand _ | State.Chase _ -> assert false
        in
        let epoch = State.epoch t.state in
        let j = match State.journal t.state with Some j -> j | None -> assert false in
        if since > epoch then
          Wire.Failed (Fmt.str "follow: resume epoch %d is ahead of this server's %d" since epoch)
        else if since >= 0 && Journal.covers j ~since ~epoch then begin
          (* Cheap path: replay from the journal alone. *)
          c.follow_from <- Some (since + 1);
          Wire.Following epoch
        end
        else
          (* The journal no longer reaches back to [since] (or the
             follower holds nothing): ship a full image of this epoch,
             then stream from the next one. *)
          let image = Snapshot.encode (Incr.program incr) (Incr.dump incr) in
          (* The image travels in one SNAP frame; past the wire's frame
             limit the follower's [read_frame] would reject it unread
             and burn its retry budget on a bootstrap that can never
             succeed — refuse with a parseable ERROR instead. 64 bytes
             of slack covers the textual SNAP header. *)
          if String.length image + 64 > Wire.max_frame then
            Wire.Failed
              (Fmt.str
                 "follow: snapshot image of %d bytes exceeds the %d-byte frame limit; \
                  bootstrap from a file snapshot or resume from a retained journal epoch"
                 (String.length image) Wire.max_frame)
          else begin
            c.follow_from <- Some (epoch + 1);
            Wire.Snap { sn_epoch = epoch; sn_bytes = image }
          end)

let answer_read t c (req : Wire.request) =
  try
    match req with
    | Wire.Query _ | Wire.Cq _ -> eval_query t.state req
    | Wire.Stats -> Option.map (stats_reply t) (State.try_stats t.state)
    | Wire.Snapshot path -> snapshot_command t path
    | Wire.Follow since -> follow_command t c since
    | _ -> assert false
  with Invalid_argument m | Failure m -> Some (Wire.Failed m)

(* ------------------------------------------------------------------ *)
(* Reactor: connection bookkeeping                                     *)

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove t.conns c.cid;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Atomic.decr t.m_connections_open
  end

(* Append one framed payload to the connection's write buffer; the
   flush phase drains it once per tick, so pipelined responses share
   write(2) calls. *)
let enqueue_payload c payload =
  let n = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (n land 0xff));
  Iobuf.add_subbytes c.wbuf hdr 0 4;
  Iobuf.add_string c.wbuf payload

let enqueue_response c resp = enqueue_payload c (Wire.print_response resp)

let update_stall t c =
  if (not c.stalled) && Iobuf.length c.wbuf > high_water then begin
    c.stalled <- true;
    t.m_backpressure_stalls <- t.m_backpressure_stalls + 1
  end
  else if c.stalled && Iobuf.length c.wbuf <= low_water then c.stalled <- false

(* Hand the session's staged batch to the writer thread; [false] when
   its queue is full. The connection stays [busy] until the result
   comes back through the completion queue. *)
let submit_commit t c =
  let s = c.session in
  let additions = List.rev s.adds_rev
  and deletions = List.rev s.dels_rev
  and loads = List.rev s.loads_rev in
  (* Runs on the writer thread, before the write lock: staged LOAD
     blocks decode here, never on the reactor, and a corrupt block
     fails the COMMIT and discards the whole staged batch. *)
  let build () =
    let rec decode acc = function
      | [] ->
        let additions = List.concat (additions :: List.rev acc) in
        Stdlib.Ok (Delta.of_lists ~additions ~deletions)
      | b :: rest -> (
        match Wire.facts_of_load b with Ok fs -> decode (fs :: acc) rest | Error msg -> Error msg)
    in
    decode [] loads
  in
  let on_done r =
    let resp =
      match r with
      | Stdlib.Ok (r : State.commit_result) ->
        Wire.Committed { added = r.cr_added; removed = r.cr_removed; epoch = r.cr_epoch }
      | Error msg -> Wire.Failed msg
    in
    Mutex.lock t.comp_mutex;
    Queue.add (c, resp) t.completions;
    Mutex.unlock t.comp_mutex;
    wake t
  in
  if State.submit t.state build on_done then begin
    s.adds_rev <- [];
    s.dels_rev <- [];
    s.loads_rev <- [];
    c.busy <- true;
    true
  end
  else false

(* Answer one pending item; [false] parks it at the head of the queue
   until the writer next wakes the reactor. *)
let handle t c = function
  | Bad msg ->
    enqueue_response c (Wire.Failed msg);
    true
  | Fatal msg ->
    enqueue_response c (Wire.Failed msg);
    c.closing <- true;
    true
  | Req req -> (
    (* A read-only replica refuses the whole write path with a
       redirect naming its primary; everything else serves locally. *)
    match (req, role t) with
    | (Wire.Add _ | Wire.Remove _ | Wire.Load _ | Wire.Commit), Replica_of addr ->
      enqueue_response c
        (Wire.Failed (Fmt.str "redirect %s: this server is a read-only replica" addr));
      true
    | Wire.Add a, Primary ->
      (* The parser only produces ground facts, so staging is a cons. *)
      c.session.adds_rev <- a :: c.session.adds_rev;
      enqueue_response c Wire.Ok;
      true
    | Wire.Remove a, Primary ->
      c.session.dels_rev <- a :: c.session.dels_rev;
      enqueue_response c Wire.Ok;
      true
    | Wire.Load b, Primary ->
      (* Staging keeps the block raw; the writer decodes it at COMMIT.
         The count is the header's claim — a lying header surfaces as a
         failed COMMIT, not a failed LOAD. *)
      c.session.loads_rev <- b :: c.session.loads_rev;
      t.m_load_facts <- t.m_load_facts + b.Wire.fb_count;
      enqueue_response c (Wire.Loaded b.Wire.fb_count);
      true
    | Wire.Commit, Primary -> submit_commit t c
    | Wire.Role, _ ->
      enqueue_response c (role_reply t);
      true
    | Wire.Promote, _ ->
      promote t;
      enqueue_response c (role_reply t);
      true
    | Wire.Quit, _ ->
      enqueue_response c Wire.Bye;
      c.closing <- true;
      true
    | (Wire.Query _ | Wire.Cq _ | Wire.Stats | Wire.Snapshot _ | Wire.Follow _), _ -> (
      match answer_read t c req with
      | Some resp ->
        enqueue_response c resp;
        true
      | None -> false))

(* Drain the connection's pending queue in order, stopping at a parked
   request or while the writer holds its COMMIT — so per-connection
   response order is submission order. *)
let process_ready t c =
  let parked = ref false in
  while (not !parked) && (not c.busy) && (not c.closing) && not (Queue.is_empty c.pending) do
    if handle t c (Queue.peek c.pending) then ignore (Queue.pop c.pending) else parked := true
  done

(* Cut every complete frame off the front of the read buffer. An
   oversized declared length is fatal: its payload is never buffered,
   so the stream cannot be re-framed — answer ERROR (in order) and
   stop reading. *)
let cut_frames t c =
  let continue = ref true in
  while !continue do
    match Iobuf.peek_u32be c.rbuf with
    | None -> continue := false
    | Some len ->
      if len > Wire.max_frame then begin
        Queue.add
          (Fatal (Fmt.str "frame of %d bytes exceeds the %d-byte limit" len Wire.max_frame))
          c.pending;
        c.eof <- true;
        continue := false
      end
      else if Iobuf.length c.rbuf >= 4 + len then begin
        let payload = Iobuf.take_string c.rbuf ~off:4 ~len in
        match Wire.parse_request payload with
        | Ok req -> Queue.add (Req req) c.pending
        | Error msg -> Queue.add (Bad msg) c.pending
      end
      else continue := false
  done;
  process_ready t c

let handle_readable t c scratch =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 ->
    c.eof <- true;
    if Iobuf.length c.rbuf > 0 then begin
      (* Bytes left that no longer form a frame: the peer died mid-send. *)
      t.log "connection dropped: truncated frame";
      close_conn t c
    end
  | n ->
    Iobuf.add_subbytes c.rbuf scratch 0 n;
    cut_frames t c
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t c

let accept_ready t =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.listener with
    | fd, _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd TCP_NODELAY true
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let cid = t.next_cid in
      t.next_cid <- cid + 1;
      let c =
        {
          cid;
          fd;
          rbuf = Iobuf.create 4096;
          wbuf = Iobuf.create 4096;
          pending = Queue.create ();
          busy = false;
          eof = false;
          closing = false;
          stalled = false;
          closed = false;
          follow_from = None;
          session = { adds_rev = []; dels_rev = []; loads_rev = [] };
        }
      in
      Hashtbl.replace t.conns cid c;
      t.m_total_connections <- t.m_total_connections + 1;
      Atomic.incr t.m_connections_open
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> continue := false
    | exception Unix.Unix_error ((ECONNABORTED | EMFILE | ENFILE), _, _) -> continue := false
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> continue := false
  done

(* ------------------------------------------------------------------ *)
(* Reactor: the tick                                                   *)

let drain_wake t scratch =
  let continue = ref true in
  while !continue do
    match Unix.read t.wake_r scratch 0 (Bytes.length scratch) with
    | 0 -> continue := false
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> continue := false
  done

let drain_completions t =
  Mutex.lock t.comp_mutex;
  let comps = List.of_seq (Queue.to_seq t.completions) in
  Queue.clear t.completions;
  Mutex.unlock t.comp_mutex;
  List.iter
    (fun (c, resp) ->
      if not c.closed then begin
        c.busy <- false;
        enqueue_response c resp;
        process_ready t c
      end)
    comps

(* Push retained journal records to every follower that is behind,
   skipping connections above the high-water mark (they resume when
   their buffer drains — normal backpressure). A follower whose cursor
   fell off the journal's old end cannot be caught up by replay: it is
   told to re-bootstrap and the connection closes. *)
let stream_followers t =
  match State.journal t.state with
  | None -> ()
  | Some j ->
    Hashtbl.iter
      (fun _ c ->
        match c.follow_from with
        | Some next when (not c.closed) && (not c.closing) && Iobuf.length c.wbuf <= high_water
          -> (
          (* One locked fetch: the records themselves decide both the
             truncation verdict and the new cursor, so a concurrent
             append or eviction cannot skew either. *)
          match Journal.since j (next - 1) with
          | [] -> ()
          | (first, _) :: _ when first > next ->
            enqueue_response c
              (Wire.Failed
                 (Fmt.str "journal truncated: oldest retained epoch is %d, resume wanted %d"
                    first next));
            c.follow_from <- None;
            c.closing <- true
          | records ->
            (* The record text is already the [JOURNAL] payload — frame
               it directly, no re-print of the delta. *)
            let last_sent =
              List.fold_left
                (fun _ (e, text) ->
                  enqueue_payload c (Fmt.str "JOURNAL %d\n%s" e text);
                  e)
                next records
            in
            c.follow_from <- Some (last_sent + 1))
        | _ -> ())
      t.conns

let conn_events c =
  let want_read =
    (not c.closing) && (not c.eof) && (not c.stalled) && Queue.length c.pending < max_pending
  in
  (if want_read then Evloop.pollin else 0) lor (if Iobuf.length c.wbuf > 0 then Evloop.pollout else 0)

let tick t scratch =
  let polled =
    Hashtbl.fold
      (fun _ c acc -> if conn_events c <> 0 then c :: acc else acc)
      t.conns []
  in
  let n = 2 + List.length polled in
  let fds = Array.make n t.wake_r in
  let evs = Array.make n 0 in
  let rvs = Array.make n 0 in
  evs.(0) <- Evloop.pollin;
  fds.(1) <- t.listener;
  evs.(1) <- Evloop.pollin;
  List.iteri
    (fun i c ->
      fds.(i + 2) <- c.fd;
      evs.(i + 2) <- conn_events c)
    polled;
  ignore (Evloop.poll fds evs rvs (-1));
  if Atomic.get t.stopping then ()
  else begin
    if rvs.(0) land Evloop.pollin <> 0 then begin
      drain_wake t scratch;
      drain_completions t;
      (* Only the writer can unpark a request, and it wakes us after
         every batch: retry what is parked behind it. *)
      Hashtbl.iter (fun _ c -> process_ready t c) t.conns
    end;
    if rvs.(1) land Evloop.pollin <> 0 then accept_ready t;
    List.iteri
      (fun i c ->
        if (not c.closed) && rvs.(i + 2) land Evloop.pollin <> 0 then
          handle_readable t c scratch)
      polled;
    (* Followers first see anything a completion or commit made
       streamable, so the flush below carries it in the same tick. *)
    stream_followers t;
    (* Flush phase: one write per connection with queued output, then
       backpressure transitions and deferred closes. *)
    let all = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    List.iter
      (fun c ->
        if not c.closed then begin
          if Iobuf.length c.wbuf > 0 then begin
            match Iobuf.write c.wbuf c.fd with
            | _ -> ()
            | exception Unix.Unix_error _ -> close_conn t c
          end;
          if not c.closed then begin
            update_stall t c;
            if
              (not c.busy)
              && Iobuf.length c.wbuf = 0
              && (c.closing || (c.eof && Queue.is_empty c.pending))
            then close_conn t c
          end
        end)
      all;
    (* A follower backpressured above may have just drained: feed it
       again so the next poll registers its interest in writability
       (otherwise a quiet journal would leave it waiting on a wake). *)
    stream_followers t
  end

let reactor_loop t =
  let scratch = Bytes.create 65536 in
  while not (Atomic.get t.stopping) do
    tick t scratch
  done;
  (* Shutdown: drop every connection so blocked clients see EOF. *)
  Hashtbl.iter
    (fun _ c ->
      c.closed <- true;
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns;
  Atomic.set t.m_connections_open 0;
  try Unix.close t.listener with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let bind_listener = function
  | Unix_socket path ->
    if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.bind fd (ADDR_UNIX path);
    (fd, Unix_socket path)
  | Tcp (host, port) ->
    let addr =
      try (Unix.gethostbyname host).h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (addr, port));
    let bound_port =
      match Unix.getsockname fd with ADDR_INET (_, p) -> p | ADDR_UNIX _ -> port
    in
    (fd, Tcp (host, bound_port))

let listen ?snapshot ?(log = fun _ -> ()) ?(role = Primary) state addr =
  (* A client vanishing mid-reply must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  ignore (Evloop.raise_fd_limit 16384);
  let listener, bound = bind_listener addr in
  Unix.listen listener 1024;
  Unix.set_nonblock listener;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      state;
      snapshot_path = snapshot;
      log;
      listener;
      bound;
      wake_r;
      wake_w;
      conns = Hashtbl.create 64;
      next_cid = 0;
      m_total_connections = 0;
      m_backpressure_stalls = 0;
      m_load_facts = 0;
      completions = Queue.create ();
      comp_mutex = Mutex.create ();
      m_connections_open = Atomic.make 0;
      m_role = Atomic.make role;
      lag_source = (fun () -> 0);
      promote_hook = (fun () -> ());
      stopping = Atomic.make false;
      reactor = None;
      stop_mutex = Mutex.create ();
      stopped = false;
    }
  in
  (* Each epoch wakes the reactor so followers stream and parked
     requests retry without polling; the hook runs on the state's
     writer thread and only writes one self-pipe byte. *)
  State.set_commit_hook state (fun _ -> wake t);
  t.reactor <- Some (Thread.create reactor_loop t);
  log (Fmt.str "listening on %s" (string_of_address bound));
  t

let stop t =
  Mutex.lock t.stop_mutex;
  if t.stopped then Mutex.unlock t.stop_mutex
  else begin
    t.stopped <- true;
    Mutex.unlock t.stop_mutex;
    Atomic.set t.stopping true;
    wake t;
    Option.iter Thread.join t.reactor;
    t.reactor <- None;
    (match t.snapshot_path with
    | Some path when not (State.demand_mode t.state || State.chase_mode t.state) -> (
      try save_dump t path (State.with_read t.state dump_of)
      with Sys_error m -> t.log (Fmt.str "snapshot at shutdown failed: %s" m))
    | Some _ | None -> ());
    (* Joins the writer, so no commit callback or hook writes to the
       self-pipe once it is closed below. *)
    State.shutdown t.state;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    (match t.bound with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    t.log "server stopped"
  end
