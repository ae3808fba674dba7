(** Shared serving state: see the interface for the discipline. *)

open Guarded_core
module Incr = Guarded_incr.Incr
module Demand = Guarded_incr.Demand
module Chase_mat = Guarded_incr.Chase_mat
module Delta = Guarded_incr.Delta

(* What answers queries: a maintained materialization, the
   demand-driven evaluator over the raw EDB, or the finite chase
   itself. *)
type backend = Materialized of Incr.t | Demand of Demand.t | Chase of Chase_mat.t

type commit_result = {
  cr_added : int;
  cr_removed : int;
  cr_epoch : int;
}

(* A submitted batch: [p_delta] builds it on the writer thread (so
   decoding stays off the submitter's), [p_done] receives the result. *)
type pending = {
  p_delta : unit -> (Delta.t, string) result;
  p_done : (commit_result, string) result -> unit;
}

(* Latency reservoir: the last [cap] samples, plus a running count.
   Percentiles sort a copy on demand — STATS is rare, samples are
   hot. *)
type reservoir = {
  samples : float array;
  mutable filled : int;  (** valid prefix length *)
  mutable next : int;  (** ring cursor *)
  mutable count : int;  (** lifetime samples *)
}

let reservoir cap = { samples = Array.make cap 0.; filled = 0; next = 0; count = 0 }

let reservoir_add r v =
  r.samples.(r.next) <- v;
  r.next <- (r.next + 1) mod Array.length r.samples;
  r.filled <- min (r.filled + 1) (Array.length r.samples);
  r.count <- r.count + 1

(* The p-th percentile of the retained samples, in microseconds. *)
let reservoir_percentile r p =
  if r.filled = 0 then 0
  else begin
    let a = Array.sub r.samples 0 r.filled in
    Array.sort Float.compare a;
    let idx = min (r.filled - 1) (int_of_float (p *. float_of_int r.filled)) in
    int_of_float (a.(idx) *. 1e6)
  end

type t = {
  mutable backend : backend;
  (* Every committed epoch's delta, retained for follower replay
     (materialized serving only — demand mode has no followers). *)
  journal : Journal.t option;
  mutable on_commit : int -> unit;  (** fired after each epoch, outside the locks *)
  mutex : Mutex.t;
  cond : Condition.t;
  (* Readers-writer lock state: connection threads read, the writer
     thread is the only mutator. The writer takes priority — queries
     are short, and a steady query stream must not starve commits. *)
  mutable readers : int;
  mutable writer_active : bool;
  mutable writer_waiting : bool;
  (* Bounded commit queue. *)
  queue : pending Queue.t;
  capacity : int;
  mutable epoch : int;
  mutable stopping : bool;
  mutable writer : Thread.t option;
  (* Metrics (all under [mutex]). *)
  mutable queries : int;
  query_lat : reservoir;
  commit_lat : reservoir;
}

let program t =
  match t.backend with
  | Materialized incr -> Incr.program incr
  | Demand d -> Demand.program d
  | Chase c -> Chase_mat.program c

let demand_mode t =
  match t.backend with Materialized _ | Chase _ -> false | Demand _ -> true

let chase_mode t =
  match t.backend with Materialized _ | Demand _ -> false | Chase _ -> true
let epoch t = t.epoch
let journal t = t.journal
let set_commit_hook t f = t.on_commit <- f

let queue_depth t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

let queue_capacity t = t.capacity

(* ------------------------------------------------------------------ *)
(* Readers-writer lock                                                 *)

let read_lock t =
  Mutex.lock t.mutex;
  while t.writer_active || t.writer_waiting do
    Condition.wait t.cond t.mutex
  done;
  t.readers <- t.readers + 1;
  Mutex.unlock t.mutex

let read_unlock t =
  Mutex.lock t.mutex;
  t.readers <- t.readers - 1;
  if t.readers = 0 then Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let with_backend t f =
  read_lock t;
  Fun.protect ~finally:(fun () -> read_unlock t) (fun () -> f t.backend)

let try_read t f =
  Mutex.lock t.mutex;
  let free = not (t.writer_active || t.writer_waiting) in
  if free then t.readers <- t.readers + 1;
  Mutex.unlock t.mutex;
  if free then Some (Fun.protect ~finally:(fun () -> read_unlock t) (fun () -> f t.backend))
  else None

let with_read t f =
  with_backend t (function
    | Materialized incr -> f incr
    | Demand _ -> invalid_arg "State.with_read: server is in demand mode"
    | Chase _ -> invalid_arg "State.with_read: server is in chase mode")

(* Both called with [t.mutex] held. *)
let write_lock_locked t =
  t.writer_waiting <- true;
  while t.readers > 0 || t.writer_active do
    Condition.wait t.cond t.mutex
  done;
  t.writer_waiting <- false;
  t.writer_active <- true

let write_unlock_locked t =
  t.writer_active <- false;
  Condition.broadcast t.cond

(* ------------------------------------------------------------------ *)
(* The writer thread                                                   *)

(* Apply one batch under the exclusive lock. The incremental paths of
   [Incr.apply] mutate the EDB before the stratum cascades, so when a
   cascade dies the EDB already reflects the batch: [Incr.refresh]
   recomputes every stratum from it, restoring the invariants with the
   batch applied. Only if even that fails is the error surfaced with
   the state possibly stale. *)
let apply_one t (p : pending) delta =
  Mutex.lock t.mutex;
  write_lock_locked t;
  Mutex.unlock t.mutex;
  let t0 = Unix.gettimeofday () in
  let result =
    match t.backend with
    | Materialized incr -> (
      match Incr.apply incr delta with
      | res ->
        Stdlib.Ok { cr_added = res.Incr.res_added; cr_removed = res.Incr.res_removed; cr_epoch = 0 }
      | exception e -> (
        let msg = Printexc.to_string e in
        match Incr.refresh incr with
        | () -> Error (Fmt.str "batch applied by fallback recompute after: %s" msg)
        | exception e2 ->
          Error
            (Fmt.str "batch failed: %s (recovery also failed: %s)" msg (Printexc.to_string e2))))
    | Demand d -> (
      (* No derived state to corrupt: [Demand.apply] only mutates the
         EDB and evicts cache entries, so there is no recovery path. *)
      match Demand.apply d delta with
      | res ->
        Stdlib.Ok
          { cr_added = res.Demand.res_added; cr_removed = res.Demand.res_removed; cr_epoch = 0 }
      | exception e -> Error (Fmt.str "batch failed: %s" (Printexc.to_string e)))
    | Chase c -> (
      (* [Chase_mat.apply] builds the new chase on the side and installs
         it atomically, so a failed batch leaves the served state
         unchanged — no recovery needed. *)
      match Chase_mat.apply c delta with
      | res ->
        Stdlib.Ok
          {
            cr_added = res.Chase_mat.res_added;
            cr_removed = res.Chase_mat.res_removed;
            cr_epoch = 0;
          }
      | exception Chase_mat.Nonterminating { budget; derivations } ->
        Error
          (Fmt.str "batch rejected: chase exceeded %d derivations (budget %d); state unchanged"
             derivations budget)
      | exception e -> Error (Fmt.str "batch failed: %s" (Printexc.to_string e)))
  in
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.lock t.mutex;
  t.epoch <- t.epoch + 1;
  let committed_epoch = t.epoch in
  (* Journal every epoch: even the failure paths have applied the
     batch to the EDB (fallback recompute, or the incremental mutation
     that preceded the cascade), so a follower replaying this record
     converges on the same store. *)
  Option.iter (fun j -> Journal.append j ~epoch:committed_epoch delta) t.journal;
  reservoir_add t.commit_lat dt;
  write_unlock_locked t;
  Mutex.unlock t.mutex;
  p.p_done
    (match result with
    | Stdlib.Ok r -> Stdlib.Ok { r with cr_epoch = committed_epoch }
    | Error _ as e -> e);
  t.on_commit committed_epoch

let writer_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.cond t.mutex
    done;
    match Queue.take_opt t.queue with
    | Some p ->
      Condition.broadcast t.cond;
      (* a queue slot freed: unblock a backpressured submitter *)
      Mutex.unlock t.mutex;
      (* Build the batch before taking the write lock: decoding staged
         blocks holds up no reader. A batch that fails to build creates
         no epoch. *)
      (match p.p_delta () with
      | Stdlib.Ok delta -> apply_one t p delta
      | Error _ as e -> p.p_done e
      | exception (Invalid_argument m | Failure m) -> p.p_done (Error m));
      loop ()
    | None ->
      (* stopping with an empty queue *)
      Mutex.unlock t.mutex
  in
  loop ()

let submit t build on_done =
  Mutex.lock t.mutex;
  let stopping = t.stopping in
  let full = (not stopping) && Queue.length t.queue >= t.capacity in
  if not (stopping || full) then begin
    Queue.add { p_delta = build; p_done = on_done } t.queue;
    Condition.broadcast t.cond
  end;
  Mutex.unlock t.mutex;
  if stopping then on_done (Error "server is shutting down");
  not full

let commit t delta =
  let result = ref None in
  let wait_until ready =
    Mutex.lock t.mutex;
    while not (ready ()) do
      Condition.wait t.cond t.mutex
    done;
    Mutex.unlock t.mutex
  in
  let on_done r =
    Mutex.lock t.mutex;
    result := Some r;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  in
  while not (submit t (fun () -> Stdlib.Ok delta) on_done) do
    wait_until (fun () -> t.stopping || Queue.length t.queue < t.capacity)
  done;
  wait_until (fun () -> Option.is_some !result);
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Construction, metrics, shutdown                                     *)

let make ?(queue_capacity = 64) ?journal_max_bytes ?(epoch = 0) backend =
  let t =
    {
      backend;
      journal =
        (match backend with
        | Materialized _ -> Some (Journal.create ?max_bytes:journal_max_bytes ())
        | Demand _ | Chase _ -> None);
      on_commit = (fun _ -> ());
      mutex = Mutex.create ();
      cond = Condition.create ();
      readers = 0;
      writer_active = false;
      writer_waiting = false;
      queue = Queue.create ();
      capacity = max 1 queue_capacity;
      epoch = max 0 epoch;
      stopping = false;
      writer = None;
      queries = 0;
      query_lat = reservoir 1024;
      commit_lat = reservoir 1024;
    }
  in
  t.writer <- Some (Thread.create writer_loop t);
  t

let of_materialization ?queue_capacity ?journal_max_bytes ?epoch incr =
  make ?queue_capacity ?journal_max_bytes ?epoch (Materialized incr)

let create ?pool ?queue_capacity ?journal_max_bytes sigma db =
  make ?queue_capacity ?journal_max_bytes (Materialized (Incr.materialize ?pool sigma db))

let create_demand ?pool ?queue_capacity sigma db =
  make ?queue_capacity (Demand (Demand.create ?pool sigma db))

let create_chase ?pool ?limits ?queue_capacity sigma db =
  make ?queue_capacity (Chase (Chase_mat.create ?pool ?limits sigma db))

(* Replace the materialization wholesale — the replica resync path: a
   follower whose resume epoch fell off the primary's journal
   re-bootstraps from a snapshot and installs it at that snapshot's
   epoch. Exclusive lock, like a commit; the journal is cleared since
   its retained run no longer leads up to the new epoch. *)
let install t incr ~epoch =
  Mutex.lock t.mutex;
  write_lock_locked t;
  (match t.backend with
  | Materialized _ -> ()
  | Demand _ | Chase _ ->
    write_unlock_locked t;
    Mutex.unlock t.mutex;
    invalid_arg "State.install: server is not in materialized mode");
  t.backend <- Materialized incr;
  t.epoch <- epoch;
  Option.iter Journal.clear t.journal;
  write_unlock_locked t;
  Mutex.unlock t.mutex;
  t.on_commit epoch

let note_query t dt =
  Mutex.lock t.mutex;
  t.queries <- t.queries + 1;
  reservoir_add t.query_lat dt;
  Mutex.unlock t.mutex

(* Called holding the shared lock (the writer may otherwise be
   mid-batch); counters are read under the mutex. In demand mode the
   resident store is the raw EDB and [facts] counts it; the
   materialization cardinality does not exist. *)
let stats_in t backend =
  let db, edb, cache, chase =
    match backend with
    | Materialized incr -> (Incr.db incr, Incr.edb incr, None, None)
    | Demand d -> (Demand.edb d, Demand.edb d, Some (Demand.cache_stats d), None)
    | Chase c -> (Chase_mat.db c, Chase_mat.edb c, None, Some (Chase_mat.stats c))
  in
  let storage = Database.storage_stats db in
  let index_runs, storage_bytes =
    List.fold_left
      (fun (r, b) (st : Database.rel_stats) -> (r + st.rs_runs, b + st.rs_bytes))
      (0, 0) storage
  in
  let facts = Database.cardinal db and edb_facts = Database.cardinal edb in
  let relations = List.length storage in
  let heap_kb = (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) / 1024 in
  Mutex.lock t.mutex;
  let s =
    {
      Wire.s_epoch = t.epoch;
      s_facts = facts;
      s_edb_facts = edb_facts;
      s_queries = t.queries;
      s_batches = t.commit_lat.count;
      s_queue_depth = Queue.length t.queue;
      s_connections = 0;
      s_total_connections = 0;
      s_connections_open = 0;
      s_bytes_buffered = 0;
      s_backpressure_stalls = 0;
      s_load_facts = 0;
      s_query_p50_us = reservoir_percentile t.query_lat 0.50;
      s_query_p95_us = reservoir_percentile t.query_lat 0.95;
      s_commit_p50_us = reservoir_percentile t.commit_lat 0.50;
      s_commit_p95_us = reservoir_percentile t.commit_lat 0.95;
      s_relations = relations;
      s_index_runs = index_runs;
      s_storage_bytes = storage_bytes;
      s_cache_hits = (match cache with Some c -> c.Guarded_incr.Subgoal_cache.sc_hits | None -> 0);
      s_cache_misses =
        (match cache with Some c -> c.Guarded_incr.Subgoal_cache.sc_misses | None -> 0);
      s_cache_entries =
        (match cache with Some c -> c.Guarded_incr.Subgoal_cache.sc_entries | None -> 0);
      s_cache_evictions =
        (match cache with Some c -> c.Guarded_incr.Subgoal_cache.sc_evictions | None -> 0);
      s_heap_kb = heap_kb;
      s_demand = (match t.backend with Materialized _ | Chase _ -> 0 | Demand _ -> 1);
      s_chase_mode = (match t.backend with Chase _ -> 1 | Materialized _ | Demand _ -> 0);
      s_chase_nulls = (match chase with Some c -> c.Chase_mat.st_nulls | None -> 0);
      s_chase_derivations =
        (match chase with Some c -> c.Chase_mat.st_derivations | None -> 0);
      s_role = 0;
      s_replicas_connected = 0;
      s_replication_lag_epochs = 0;
      s_journal_bytes = (match t.journal with Some j -> Journal.bytes j | None -> 0);
    }
  in
  Mutex.unlock t.mutex;
  s

let stats t = with_backend t (stats_in t)
let try_stats t = try_read t (stats_in t)

let shutdown t =
  Mutex.lock t.mutex;
  if not t.stopping then begin
    t.stopping <- true;
    Condition.broadcast t.cond
  end;
  (* Fail whatever is still queued, outside the lock (the callbacks may
     take it); the writer exits once the queue is empty. *)
  let queued = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  let w = t.writer in
  t.writer <- None;
  Mutex.unlock t.mutex;
  List.iter (fun p -> p.p_done (Error "server is shutting down")) queued;
  Option.iter Thread.join w
