(** The replication subsystem (lib/server/repl) and its substrate:
    journal bookkeeping, backoff schedules, the failover state machine,
    wire round-trips of the replication verbs, snapshot-assisted
    bootstrap equivalence (a replica built from a wire snapshot at
    epoch [k] must equal one that replayed every epoch from 0), the
    cluster concurrency oracle (primary + two replicas converge to the
    sequential reference), and warm failover (kill the primary, promote
    a drained replica, lose nothing). *)

open Guarded_core
open Guarded_gen.Generator
module Delta = Guarded_incr.Delta
module Incr = Guarded_incr.Incr
module Seminaive = Guarded_datalog.Seminaive
module Pool = Guarded_par.Pool
module Wire = Guarded_server.Wire
module State = Guarded_server.State
module Server = Guarded_server.Server
module Client = Guarded_server.Client
module Snapshot = Guarded_server.Snapshot
module Journal = Guarded_server.Journal
module Backoff = Guarded_server.Backoff
module Bootstrap = Guarded_repl.Bootstrap
module Replica = Guarded_repl.Replica
module Cluster = Guarded_repl.Cluster
module Failover = Guarded_repl.Failover

let theory = Helpers.theory
let db = Helpers.db
let atom = Helpers.atom

let path_sigma = "e(X, Y) -> path(X, Y). e(X, Z), path(Z, Y) -> path(X, Y)."

let delta_add facts = Delta.of_lists ~additions:(List.map atom facts) ~deletions:[]

(* Poll until [p ()] or fail after ~5 s — replication is asynchronous,
   every convergence claim waits explicitly. *)
let wait_for what p =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    if p () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let fresh_sock () =
  let sock = Filename.temp_file "guarded_repl" ".sock" in
  Sys.remove sock;
  sock

let with_primary ?journal_max_bytes sigma_text db_text f =
  let st = State.create ?journal_max_bytes (theory sigma_text) (db db_text) in
  let srv = Server.listen st (Server.Unix_socket (fresh_sock ())) in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f st srv)

let start_replica ?policy ?local srv =
  match Replica.start ?policy ?local ~primary:(Server.address srv) (Server.Unix_socket (fresh_sock ())) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "replica bootstrap failed: %s" msg

let replica_db r = State.with_read (Replica.state r) (fun m -> Database.copy (Incr.db m))

let drained st r =
  wait_for "replica catch-up" (fun () -> State.epoch (Replica.state r) >= State.epoch st)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let test_journal () =
  let j = Journal.create () in
  Alcotest.(check (option int)) "empty oldest" None (Journal.oldest j);
  Alcotest.(check (option int)) "empty latest" None (Journal.latest j);
  for e = 1 to 5 do
    Journal.append j ~epoch:e (delta_add [ Fmt.str "e(a%d, b%d)" e e ])
  done;
  Alcotest.(check (option int)) "oldest" (Some 1) (Journal.oldest j);
  Alcotest.(check (option int)) "latest" (Some 5) (Journal.latest j);
  Alcotest.(check int) "since 2 keeps 3" 3 (List.length (Journal.since j 2));
  Alcotest.(check (list int)) "since 2 is ordered past 2" [ 3; 4; 5 ]
    (List.map fst (Journal.since j 2));
  Alcotest.(check bool) "covers caught-up" true (Journal.covers j ~since:5 ~epoch:5);
  Alcotest.(check bool) "covers 0.." true (Journal.covers j ~since:0 ~epoch:5);
  Alcotest.(check bool) "stale epoch not covered" false (Journal.covers j ~since:0 ~epoch:6);
  (* a non-contiguous append clears the run: the retained records must
     never lie about leading to the newest epoch *)
  Journal.append j ~epoch:9 (delta_add [ "e(x, y)" ]);
  Alcotest.(check (option int)) "cleared to the gap" (Some 9) (Journal.oldest j);
  Alcotest.(check bool) "old run no longer covers" false (Journal.covers j ~since:3 ~epoch:9);
  Alcotest.(check bool) "caught-up still covers" true (Journal.covers j ~since:9 ~epoch:9)

let test_journal_eviction () =
  (* cap clamps to 4096 bytes; big records must evict from the old end
     but always keep the newest *)
  let j = Journal.create ~max_bytes:1 () in
  let big e =
    Delta.of_lists
      ~additions:(List.init 200 (fun i -> atom (Fmt.str "r(c%d_%d, d%d)" e i i)))
      ~deletions:[]
  in
  for e = 1 to 20 do
    Journal.append j ~epoch:e (big e)
  done;
  Alcotest.(check (option int)) "latest survives" (Some 20) (Journal.latest j);
  Alcotest.(check bool) "oldest evicted" true (Option.get (Journal.oldest j) > 1);
  Alcotest.(check bool) "bounded" true (Journal.bytes j <= 4096 || Journal.records j = 1);
  Alcotest.(check bool) "truncated run does not cover 0.." false
    (Journal.covers j ~since:0 ~epoch:20)

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)

let test_backoff () =
  let b = Backoff.make ~base:0.025 ~factor:2.0 ~max_delay:1.0 ~attempts:8 () in
  Alcotest.(check (option (float 1e-9))) "first try immediate" (Some 0.) (Backoff.delay b 0);
  Alcotest.(check (option (float 1e-9))) "first retry at base" (Some 0.025) (Backoff.delay b 1);
  Alcotest.(check (option (float 1e-9))) "doubles" (Some 0.05) (Backoff.delay b 2);
  Alcotest.(check (option (float 1e-9))) "capped" (Some 1.0) (Backoff.delay b 7);
  Alcotest.(check (option (float 1e-9))) "budget spent" None (Backoff.delay b 8);
  let calls = ref 0 in
  let res =
    Backoff.retry
      (Backoff.make ~base:0.001 ~attempts:3 ())
      (fun () ->
        incr calls;
        Error "still down")
  in
  Alcotest.(check int) "retry used the whole budget" 3 !calls;
  Alcotest.(check bool) "last error returned" true (res = Error "still down");
  let res = Backoff.retry (Backoff.make ~base:0.001 ~attempts:3 ()) (fun () -> Ok 42) in
  Alcotest.(check bool) "success short-circuits" true (res = Ok 42)

(* ------------------------------------------------------------------ *)
(* Failover machine                                                    *)

let test_failover_machine () =
  let policy = { Failover.retry = Backoff.make ~attempts:3 (); auto_promote = false } in
  let step = Failover.step policy in
  Alcotest.(check bool) "loss starts reconnecting" true
    (step Failover.Streaming Failover.Connection_down = Failover.Reconnecting 0);
  Alcotest.(check bool) "a failed dial counts" true
    (step (Failover.Reconnecting 0) Failover.Retry_failed = Failover.Reconnecting 1);
  Alcotest.(check bool) "recovery resumes streaming" true
    (step (Failover.Reconnecting 1) Failover.Connection_up = Failover.Streaming);
  Alcotest.(check bool) "budget spent -> stopped" true
    (step (Failover.Reconnecting 2) Failover.Retry_failed = Failover.Stopped);
  let auto = { policy with auto_promote = true } in
  Alcotest.(check bool) "budget spent -> promoted under auto_promote" true
    (Failover.step auto (Failover.Reconnecting 2) Failover.Retry_failed = Failover.Promoted);
  Alcotest.(check bool) "promote from anywhere" true
    (step Failover.Streaming Failover.Promote = Failover.Promoted);
  Alcotest.(check bool) "stop from anywhere" true
    (step (Failover.Reconnecting 1) Failover.Stop = Failover.Stopped);
  (* absorbing *)
  List.iter
    (fun ev ->
      Alcotest.(check bool) "promoted absorbs" true
        (Failover.step auto Failover.Promoted ev = Failover.Promoted);
      Alcotest.(check bool) "stopped absorbs" true
        (step Failover.Stopped ev = Failover.Stopped))
    [ Failover.Connection_up; Failover.Connection_down; Failover.Retry_failed;
      Failover.Promote; Failover.Stop ];
  Alcotest.(check bool) "terminal" true
    (Failover.terminal Failover.Promoted
    && Failover.terminal Failover.Stopped
    && (not (Failover.terminal Failover.Streaming))
    && not (Failover.terminal (Failover.Reconnecting 4)));
  (* pacing coherence: every reachable [Reconnecting n] has a delay
     scheduled at index [n], so a policy with [attempts = N] budgets
     exactly N dials before the machine lands in its terminal state *)
  let rec walk st dials =
    match st with
    | Failover.Reconnecting n ->
      Alcotest.(check bool) (Fmt.str "dial %d is scheduled" n) true
        (Backoff.delay policy.Failover.retry n <> None);
      walk (step st Failover.Retry_failed) (dials + 1)
    | _ -> dials
  in
  Alcotest.(check int) "attempts = dials" 3
    (walk (step Failover.Streaming Failover.Connection_down) 0)

(* ------------------------------------------------------------------ *)
(* Wire round-trips of the replication verbs                           *)

let roundtrip_request r =
  match Wire.parse_request (Wire.print_request r) with
  | Ok r' -> Wire.print_request r' = Wire.print_request r
  | Error _ -> false

let roundtrip_response r =
  match Wire.parse_response (Wire.print_response r) with
  | Ok r' -> Wire.print_response r' = Wire.print_response r
  | Error _ -> false

let test_wire_repl_verbs () =
  List.iter
    (fun r ->
      Alcotest.(check bool) (Wire.print_request r) true (roundtrip_request r))
    [ Wire.Follow (-1); Wire.Follow 0; Wire.Follow 123456; Wire.Role; Wire.Promote ];
  Alcotest.(check bool) "FOLLOW -2 rejected" true
    (Result.is_error (Wire.parse_request "FOLLOW -2"));
  let sigma = theory path_sigma in
  let image =
    Snapshot.encode sigma (Incr.dump (Incr.materialize sigma (db "e(a, b). e(b, c).")))
  in
  let awkward_delta =
    Delta.of_lists
      ~additions:[ Atom.make "p" [ Term.Const "Hello"; Term.Const "a b" ] ]
      ~deletions:[ atom "e(a, b)" ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (String.sub (Wire.print_response r) 0 (min 40 (String.length (Wire.print_response r))))
        true (roundtrip_response r))
    [
      Wire.Following 0;
      Wire.Following 42;
      (* binary body: newlines and NULs inside must survive framing *)
      Wire.Snap { sn_epoch = 7; sn_bytes = image };
      Wire.Snap { sn_epoch = 0; sn_bytes = "raw\nbytes\x00with\nnewlines" };
      Wire.Journal_rec { jr_epoch = 3; jr_delta = awkward_delta };
      Wire.Journal_rec { jr_epoch = 1; jr_delta = Delta.empty };
      Wire.Role_reply { rr_primary = true; rr_epoch = 12; rr_lag = 0; rr_primary_addr = None };
      Wire.Role_reply
        {
          rr_primary = false;
          rr_epoch = 9;
          rr_lag = 3;
          (* unix paths may contain spaces; the parser cuts the addr off the tail *)
          rr_primary_addr = Some "unix:/tmp/dir with spaces/primary.sock";
        };
    ];
  (* a SNAP whose byte count disagrees with the body is rejected *)
  Alcotest.(check bool) "SNAP length mismatch rejected" true
    (Result.is_error (Wire.parse_response "SNAP 3 10\nshort"))

(* ------------------------------------------------------------------ *)
(* Shared snapshot codec: wire image = file image, corruption rejected *)

let test_wire_snapshot_codec () =
  let sigma = theory path_sigma in
  let incr = Incr.materialize sigma (db "e(a, b). e(b, c).") in
  let image = Snapshot.encode sigma (Incr.dump incr) in
  (* the same bytes, decoded, rebuild an equal materialization *)
  let sigma', incr' = Snapshot.restore image in
  Alcotest.(check bool) "program survives" true (Snapshot.theory_equal sigma sigma');
  Alcotest.(check bool) "materialization survives" true
    (Database.equal (Incr.db incr) (Incr.db incr'));
  (* and they are byte-identical with what Snapshot.save writes *)
  let file = Filename.temp_file "guarded_repl" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Snapshot.save ~path:file sigma (Incr.dump incr);
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let from_file = really_input_string ic n in
      close_in ic;
      Alcotest.(check bool) "wire image = file image" true (String.equal image from_file));
  (* every corruption is a parseable rejection, never a crash *)
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Bytes.to_string b
  in
  List.iter
    (fun (what, bad) ->
      match Snapshot.decode ~what:"<test>" bad with
      | _ -> Alcotest.failf "%s: corruption accepted" what
      | exception Snapshot.Corrupt _ -> ())
    [
      ("bad magic", flip image 0);
      ("flipped body byte", flip image (String.length image / 2));
      ("flipped checksum byte", flip image (String.length image - 1));
      ("truncated", String.sub image 0 (String.length image - 3));
      ("trailing garbage", image ^ "x");
      ("empty", "");
    ];
  (* program mismatch on the bootstrap path is Corrupt, not divergence *)
  match Snapshot.restore_for ~what:"<test>" image (theory "e(X, Y) -> q(X).") with
  | _ -> Alcotest.fail "foreign program accepted"
  | exception Snapshot.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Client: typed connection loss + reconnect                           *)

let test_client_connection_lost () =
  let sock = fresh_sock () in
  let st = State.create (theory path_sigma) (db "e(a, b).") in
  let srv = Server.listen st (Server.Unix_socket sock) in
  let c = Client.connect (Server.address srv) in
  Alcotest.(check int) "serving before the loss" 1 (List.length (Client.query c "path"));
  Server.stop srv;
  (match Client.request c Wire.Stats with
  | exception Client.Connection_lost _ -> ()
  | _ -> Alcotest.fail "expected Connection_lost after the server died");
  (* reconnect against a dead address exhausts a bounded budget *)
  (match Client.reconnect ~backoff:(Backoff.make ~base:0.001 ~attempts:2 ()) c with
  | exception Client.Connection_lost _ -> ()
  | () -> Alcotest.fail "reconnect to a dead server succeeded");
  (* a new server on the same address: reconnect revives the handle *)
  let st2 = State.create (theory path_sigma) (db "e(a, b). e(b, c).") in
  let srv2 = Server.listen st2 (Server.Unix_socket sock) in
  Fun.protect
    ~finally:(fun () -> Server.stop srv2)
    (fun () ->
      Client.reconnect c;
      Alcotest.(check int) "serving after reconnect" 3 (List.length (Client.query c "path"));
      Client.close c)

(* After a failed reconnect the handle's stored fd number is already
   closed and the kernel may have reassigned it; shutdown/close must
   leave it alone or they tear down an unrelated descriptor. *)
let test_client_close_after_failed_reconnect () =
  let sock = fresh_sock () in
  let st = State.create (theory path_sigma) (db "e(a, b).") in
  let srv = Server.listen st (Server.Unix_socket sock) in
  let c = Client.connect (Server.address srv) in
  Server.stop srv;
  (match Client.reconnect ~backoff:(Backoff.make ~base:0.001 ~attempts:2 ()) c with
  | exception Client.Connection_lost _ -> ()
  | () -> Alcotest.fail "reconnect to a dead server succeeded");
  (* lowest-free-fd allocation: this probe takes the number the failed
     reconnect released — exactly the descriptor a double-close hits *)
  let probe = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
    (fun () ->
      Client.shutdown c;
      Client.close c;
      Client.close c;
      match Unix.fstat probe with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        Alcotest.fail "close after a failed reconnect closed an unrelated fd")

(* ------------------------------------------------------------------ *)
(* Bootstrap equivalence: snapshot-at-k + stream = replay-from-0       *)

(* One primary; [early] attaches with a local epoch-0 materialization
   before any commit (journal replay of every epoch), [late] attaches
   after [k] commits (wire snapshot at k + stream of the rest). Both
   must converge to the primary, whatever the path. *)
let bootstrap_equivalence sigma db0 batches_before batches_after =
  let st = State.create sigma db0 in
  let srv = Server.listen st (Server.Unix_socket (fresh_sock ())) in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let early = start_replica ~local:(sigma, db0) srv in
      Fun.protect
        ~finally:(fun () -> Replica.stop early)
        (fun () ->
          List.iter (fun d -> ignore (State.commit st d)) batches_before;
          let late = start_replica srv in
          Fun.protect
            ~finally:(fun () -> Replica.stop late)
            (fun () ->
              List.iter (fun d -> ignore (State.commit st d)) batches_after;
              drained st early;
              drained st late;
              let reference = State.with_read st (fun m -> Database.copy (Incr.db m)) in
              Database.equal (replica_db early) reference
              && Database.equal (replica_db late) reference
              && Replica.lag early = 0
              && Replica.lag late = 0)))

let test_bootstrap_equivalence () =
  let sigma = theory path_sigma in
  let ok =
    bootstrap_equivalence sigma (db "e(a, b).")
      [ delta_add [ "e(b, c)" ]; delta_add [ "e(c, d)" ] ]
      [
        delta_add [ "e(d, e)" ];
        Delta.of_lists ~additions:[ atom "e(e, f)" ] ~deletions:[ atom "e(a, b)" ];
      ]
  in
  Alcotest.(check bool) "both bootstrap paths converge" true ok

let gen_plain_delta =
  QCheck.Gen.(
    pair (list_size (int_range 0 3) gen_fact) (list_size (int_range 0 3) gen_fact)
    >|= fun (additions, deletions) -> Delta.of_lists ~additions ~deletions)

let prop_bootstrap_equivalence =
  QCheck.Test.make ~count:10 ~name:"replica bootstrap: snapshot-at-k = replay-from-0"
    (QCheck.make
       ~print:(fun (sigma, d, before, after) ->
         Fmt.str "%s@.---@.%a@.---@.%a@.===@.%a" (Theory.to_string sigma) Database.pp d
           (Fmt.list ~sep:(Fmt.any "@.---@.") Delta.pp)
           before
           (Fmt.list ~sep:(Fmt.any "@.---@.") Delta.pp)
           after)
       QCheck.Gen.(
         quad (QCheck.gen arbitrary_datalog) (gen_db ())
           (list_size (int_range 1 3) gen_plain_delta)
           (list_size (int_range 1 3) gen_plain_delta)))
    (fun (sigma, db0, before, after) -> bootstrap_equivalence sigma db0 before after)

(* ------------------------------------------------------------------ *)
(* The cluster concurrency oracle                                      *)

(* The server suite's oracle, extended across a cluster: writer threads
   commit through a routing Cluster handle against the primary while
   reads round-robin over two replicas; afterwards the primary must
   equal sequential replay in commit-epoch order and both replicas must
   equal the primary. *)
let run_cluster_case ?pool (sigma, db0, schedules) =
  let st = State.create ?pool sigma db0 in
  let srv = Server.listen st (Server.Unix_socket (fresh_sock ())) in
  let r1 = start_replica srv in
  let r2 = start_replica srv in
  let finally () =
    Replica.stop r1;
    Replica.stop r2;
    Server.stop srv
  in
  Fun.protect ~finally (fun () ->
      let endpoints =
        [
          Server.address srv;
          Server.address (Replica.server r1);
          Server.address (Replica.server r2);
        ]
      in
      let applied = Mutex.create () in
      let order = ref [] in
      let failures = ref [] in
      let client schedule =
        let cl = Cluster.make endpoints in
        Fun.protect
          ~finally:(fun () -> Cluster.close cl)
          (fun () ->
            List.iter
              (fun d ->
                (* interleave a routed read; replicas may lag, the
                   response shape is what matters here *)
                (match Cluster.read cl Wire.Stats with
                | Wire.Stats_reply _ -> ()
                | _ -> failwith "STATS did not answer");
                match Cluster.commit cl d with
                | Ok (_, _, epoch) ->
                  Mutex.lock applied;
                  order := (epoch, d) :: !order;
                  Mutex.unlock applied
                | Error m ->
                  Mutex.lock applied;
                  failures := m :: !failures;
                  Mutex.unlock applied)
              schedule)
      in
      let threads = List.map (fun s -> Thread.create client s) schedules in
      List.iter Thread.join threads;
      if !failures <> [] then false
      else begin
        drained st r1;
        drained st r2;
        let final_db, final_edb =
          State.with_read st (fun m -> (Database.copy (Incr.db m), Database.copy (Incr.edb m)))
        in
        let reference = Database.copy db0 in
        List.iter
          (fun (_, (d : Delta.t)) ->
            List.iter (fun f -> ignore (Database.remove reference f)) d.Delta.deletions;
            List.iter (fun f -> ignore (Database.add reference f)) d.Delta.additions)
          (List.sort (fun (a, _) (b, _) -> compare a b) !order);
        Database.equal final_edb reference
        && Database.equal final_db (Seminaive.eval ?pool sigma reference)
        && Database.equal (replica_db r1) final_db
        && Database.equal (replica_db r2) final_db
      end)

let gen_schedules =
  QCheck.Gen.(list_size (int_range 2 3) (list_size (int_range 1 3) gen_plain_delta))

let print_cluster_case (sigma, d, schedules) =
  Fmt.str "%s@.---@.%a@.---@.%a" (Theory.to_string sigma) Database.pp d
    (Fmt.list ~sep:(Fmt.any "@.===@.") (Fmt.list ~sep:(Fmt.any "@.---@.") Delta.pp))
    schedules

let arbitrary_cluster_case arb_theory =
  QCheck.make ~print:print_cluster_case
    QCheck.Gen.(triple (QCheck.gen arb_theory) (gen_db ()) gen_schedules)

let prop_cluster_datalog =
  QCheck.Test.make ~count:35 ~name:"cluster = sequential replay (Datalog)"
    (arbitrary_cluster_case arbitrary_datalog) run_cluster_case

let prop_cluster_semipositive =
  QCheck.Test.make ~count:35 ~name:"cluster = sequential replay (semipositive)"
    (arbitrary_cluster_case arbitrary_semipositive) run_cluster_case

let pool = lazy (Pool.create ~domains:2 ~min_work:1 ~oversubscribe:true ())

let prop_cluster_datalog_pool =
  QCheck.Test.make ~count:20 ~name:"cluster = sequential replay (Datalog, pool)"
    (arbitrary_cluster_case arbitrary_datalog) (fun case ->
      run_cluster_case ~pool:(Lazy.force pool) case)

let prop_cluster_semipositive_pool =
  QCheck.Test.make ~count:20 ~name:"cluster = sequential replay (semipositive, pool)"
    (arbitrary_cluster_case arbitrary_semipositive) (fun case ->
      run_cluster_case ~pool:(Lazy.force pool) case)

(* ------------------------------------------------------------------ *)
(* Serving behavior: redirects, ROLE, STATS keys                       *)

let test_replica_serving () =
  with_primary path_sigma "e(a, b). e(b, c)." (fun st srv ->
      let r = start_replica srv in
      Fun.protect
        ~finally:(fun () -> Replica.stop r)
        (fun () ->
          let c = Client.connect (Server.address (Replica.server r)) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              Alcotest.(check int) "replica answers reads" 3
                (List.length (Client.query c "path"));
              (* writes redirect, naming the primary *)
              (match Client.request c (Wire.Add (atom "e(c, d)")) with
              | Wire.Failed msg ->
                let contains hay needle =
                  let nh = String.length hay and nn = String.length needle in
                  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
                  go 0
                in
                Alcotest.(check bool) "redirect names the primary" true
                  (String.length msg > 9
                  && String.sub msg 0 9 = "redirect "
                  && contains msg (Server.string_of_address (Server.address srv)))
              | _ -> Alcotest.fail "expected a redirect ERROR");
              (* ROLE on both ends *)
              (match Client.request c Wire.Role with
              | Wire.Role_reply { rr_primary = false; rr_primary_addr = Some a; _ } ->
                Alcotest.(check string) "replica names its primary"
                  (Server.string_of_address (Server.address srv))
                  a
              | _ -> Alcotest.fail "expected a replica ROLE reply");
              let pc = Client.connect (Server.address srv) in
              Fun.protect
                ~finally:(fun () -> Client.close pc)
                (fun () ->
                  (match Client.request pc Wire.Role with
                  | Wire.Role_reply { rr_primary = true; _ } -> ()
                  | _ -> Alcotest.fail "expected a primary ROLE reply");
                  (* commit on the primary; the replica converges *)
                  (match Client.commit pc (delta_add [ "e(c, d)" ]) with
                  | Ok _ -> ()
                  | Error m -> Alcotest.fail m);
                  drained st r;
                  Alcotest.(check int) "replica caught up" 6
                    (List.length (Client.query c "path"));
                  (* STATS replication keys on both ends *)
                  let ps = Client.stats pc and rs = Client.stats c in
                  Alcotest.(check int) "primary role" 0 ps.Wire.s_role;
                  Alcotest.(check int) "one follower" 1 ps.Wire.s_replicas_connected;
                  Alcotest.(check bool) "journal retains bytes" true
                    (ps.Wire.s_journal_bytes > 0);
                  Alcotest.(check int) "replica role" 1 rs.Wire.s_role;
                  Alcotest.(check int) "replica drained" 0 rs.Wire.s_replication_lag_epochs))))

(* ------------------------------------------------------------------ *)
(* Warm failover: kill the primary, promote, lose nothing              *)

let test_kill_primary_promote () =
  let sock = fresh_sock () in
  let st = State.create (theory path_sigma) (db "e(a, b).") in
  let srv = Server.listen st (Server.Unix_socket sock) in
  let r = start_replica srv in
  let acked = ref [] in
  List.iter
    (fun d ->
      match State.commit st d with
      | Ok cr -> acked := cr.State.cr_epoch :: !acked
      | Error m -> Alcotest.fail m)
    [ delta_add [ "e(b, c)" ]; delta_add [ "e(c, d)" ]; delta_add [ "e(d, e)" ] ];
  (* drain before the kill: replication is asynchronous, "no committed
     epoch lost" is a claim about acknowledged-and-shipped epochs *)
  drained st r;
  let primary_final = State.with_read st (fun m -> Database.copy (Incr.db m)) in
  Server.stop srv;
  (* explicit warm failover through the wire verb *)
  let c = Client.connect (Server.address (Replica.server r)) in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Replica.stop r)
    (fun () ->
      (match Client.request c Wire.Promote with
      | Wire.Role_reply { rr_primary = true; _ } -> ()
      | resp -> Alcotest.failf "PROMOTE failed: %s" (Wire.print_response resp));
      wait_for "promotion" (fun () -> Server.role (Replica.server r) = Server.Primary);
      (match Client.request c Wire.Role with
      | Wire.Role_reply { rr_primary = true; rr_epoch; _ } ->
        Alcotest.(check int) "every acked epoch survived" (List.length !acked) rr_epoch
      | _ -> Alcotest.fail "expected a primary ROLE reply after PROMOTE");
      Alcotest.(check bool) "no committed fact lost" true
        (Database.equal (replica_db r) primary_final);
      (* the promoted node now accepts writes and continues the epochs *)
      match Client.commit c (delta_add [ "e(e, f)" ]) with
      | Ok (_, _, epoch) -> Alcotest.(check int) "epochs continue" 4 epoch
      | Error m -> Alcotest.failf "write after promotion failed: %s" m)

let test_auto_promote () =
  let st = State.create (theory path_sigma) (db "e(a, b).") in
  let srv = Server.listen st (Server.Unix_socket (fresh_sock ())) in
  let policy =
    { Failover.retry = Backoff.make ~base:0.002 ~attempts:3 (); auto_promote = true }
  in
  let r = start_replica ~policy srv in
  Fun.protect
    ~finally:(fun () -> Replica.stop r)
    (fun () ->
      ignore (State.commit st (delta_add [ "e(b, c)" ]));
      drained st r;
      Server.stop srv;
      wait_for "auto-promotion" (fun () -> Server.role (Replica.server r) = Server.Primary);
      Alcotest.(check bool) "machine reports promoted" true
        (Replica.failover_state r = Failover.Promoted);
      let c = Client.connect (Server.address (Replica.server r)) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.commit c (delta_add [ "e(c, d)" ]) with
          | Ok (_, _, epoch) -> Alcotest.(check int) "writable, epochs continue" 2 epoch
          | Error m -> Alcotest.failf "write after auto-promotion failed: %s" m))

(* Cluster write routing across a failover: the handle aimed at the
   dead primary probes ROLE and finds the promoted replica. *)
let test_cluster_failover_routing () =
  let st = State.create (theory path_sigma) (db "e(a, b).") in
  let srv = Server.listen st (Server.Unix_socket (fresh_sock ())) in
  let r = start_replica srv in
  let cl =
    Cluster.make [ Server.address srv; Server.address (Replica.server r) ]
  in
  Fun.protect
    ~finally:(fun () ->
      Cluster.close cl;
      Replica.stop r)
    (fun () ->
      (match Cluster.commit cl (delta_add [ "e(b, c)" ]) with
      | Ok (_, _, 1) -> ()
      | Ok _ -> Alcotest.fail "unexpected epoch"
      | Error m -> Alcotest.fail m);
      drained st r;
      Server.stop srv;
      Replica.promote r;
      wait_for "promotion" (fun () -> Server.role (Replica.server r) = Server.Primary);
      (match Cluster.commit cl (delta_add [ "e(c, d)" ]) with
      | Ok (_, _, epoch) -> Alcotest.(check int) "rerouted to the new primary" 2 epoch
      | Error m -> Alcotest.failf "failover routing failed: %s" m);
      Alcotest.(check string) "cluster re-aimed"
        (Server.string_of_address (Server.address (Replica.server r)))
        (Server.string_of_address (Cluster.primary cl)))

(* A write sent to a replica through a cluster seeded with the replica
   first must follow the redirect to the real primary. *)
let test_cluster_redirect () =
  let st = State.create (theory path_sigma) (db "e(a, b).") in
  let srv = Server.listen st (Server.Unix_socket (fresh_sock ())) in
  let r = start_replica srv in
  (* the replica listed first: the cluster's initial primary guess is wrong *)
  let cl = Cluster.make [ Server.address (Replica.server r); Server.address srv ] in
  Fun.protect
    ~finally:(fun () ->
      Cluster.close cl;
      Replica.stop r;
      Server.stop srv)
    (fun () ->
      (match Cluster.commit cl (delta_add [ "e(b, c)" ]) with
      | Ok (_, _, 1) -> ()
      | Ok _ -> Alcotest.fail "unexpected epoch"
      | Error m -> Alcotest.failf "redirect-following commit failed: %s" m);
      Alcotest.(check string) "redirect re-aimed the cluster"
        (Server.string_of_address (Server.address srv))
        (Server.string_of_address (Cluster.primary cl)))

let suite =
  [
    Alcotest.test_case "journal: append/since/covers" `Quick test_journal;
    Alcotest.test_case "journal: byte-capped eviction" `Quick test_journal_eviction;
    Alcotest.test_case "backoff: schedule + retry" `Quick test_backoff;
    Alcotest.test_case "failover: machine transitions" `Quick test_failover_machine;
    Alcotest.test_case "wire: replication verbs round-trip" `Quick test_wire_repl_verbs;
    Alcotest.test_case "snapshot: wire = file, corruption rejected" `Quick
      test_wire_snapshot_codec;
    Alcotest.test_case "client: Connection_lost + reconnect" `Quick
      test_client_connection_lost;
    Alcotest.test_case "client: close after a failed reconnect is inert" `Quick
      test_client_close_after_failed_reconnect;
    Alcotest.test_case "bootstrap: snapshot-at-k = replay-from-0" `Quick
      test_bootstrap_equivalence;
    Alcotest.test_case "replica: reads, redirects, ROLE, STATS" `Quick test_replica_serving;
    Alcotest.test_case "failover: kill primary, promote, lose nothing" `Quick
      test_kill_primary_promote;
    Alcotest.test_case "failover: auto-promote after a dead primary" `Quick
      test_auto_promote;
    Alcotest.test_case "cluster: redirect re-aims writes" `Quick test_cluster_redirect;
    Alcotest.test_case "cluster: write routing survives failover" `Quick
      test_cluster_failover_routing;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_bootstrap_equivalence;
        prop_cluster_datalog;
        prop_cluster_semipositive;
        prop_cluster_datalog_pool;
        prop_cluster_semipositive_pool;
      ]
