(** The network serving subsystem (lib/server) and its substrate: wire
    protocol round-trips (including constants that need quoting), the
    binary codec and snapshot files (corruption must be rejected, warm
    restarts must equal cold materialization), the update-file batch
    parser, and the concurrency oracle — many client threads querying
    and committing against one {!Guarded_server.State.t} must leave
    exactly the state of replaying the batches sequentially in the
    order the writer applied them. *)

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

let theory = Helpers.theory
let db = Helpers.db
let atom = Helpers.atom
let check_db = Alcotest.check (Alcotest.testable Database.pp Database.equal)

(* Constants whose bare spelling would not reparse: the printers must
   quote every one of these. *)
let awkward_constants = [ "Hello"; "a b"; ""; "?x"; "_n3"; "p(q)"; "COMMIT" ]

(* ------------------------------------------------------------------ *)
(* Wire protocol round-trips                                           *)

let roundtrip_request r =
  match Wire.parse_request (Wire.print_request r) with
  | Ok r' -> Wire.print_request r' = Wire.print_request r
  | Error _ -> false

let roundtrip_response r =
  match Wire.parse_response (Wire.print_response r) with
  | Ok r' -> Wire.print_response r' = Wire.print_response r
  | Error _ -> false

let test_wire_requests () =
  let awkward = List.map (fun c -> Term.Const c) awkward_constants in
  let reqs =
    [
      Wire.Query { rel = "path"; pattern = None };
      Wire.Query { rel = "path"; pattern = Some [ Term.Const "a"; Term.Var "X" ] };
      Wire.Query { rel = "p"; pattern = Some awkward };
      Wire.Add (Atom.make "p" awkward);
      Wire.Remove (Atom.make "edge" [ Term.Const "New York"; Term.Const "b" ]);
      Wire.Commit;
      Wire.Stats;
      Wire.Snapshot None;
      Wire.Snapshot (Some "/tmp/some file.snap");
      Wire.load_of_facts [];
      Wire.load_of_facts [ Atom.make "p" awkward; atom "e(a, b)" ];
      Wire.Quit;
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) (Wire.print_request r) true (roundtrip_request r))
    reqs;
  (let u, rel = Guarded_cq.Ucq.of_string "path(X, Y), e(Y, Z) -> q(X, Z). ; e(X, 'A b') -> q(X, X)." in
   Alcotest.(check bool) "ucq round-trips" true (roundtrip_request (Wire.Cq (u, rel))));
  (* keyword case-insensitivity and the EXIT alias *)
  Alcotest.(check bool) "commit lowercase" true (Wire.parse_request "commit" = Ok Wire.Commit);
  Alcotest.(check bool) "exit alias" true (Wire.parse_request "EXIT" = Ok Wire.Quit);
  (* rejects *)
  let rejected s = Result.is_error (Wire.parse_request s) in
  Alcotest.(check bool) "empty" true (rejected "");
  Alcotest.(check bool) "garbage" true (rejected "FROBNICATE now");
  Alcotest.(check bool) "non-ground add" true (rejected "+p(X).");
  (* LOAD needs a count and a newline; the block itself is validated
     only when the COMMIT decodes it *)
  Alcotest.(check bool) "bare LOAD" true (rejected "LOAD");
  Alcotest.(check bool) "LOAD without a count" true (rejected "LOAD x\n");
  Alcotest.(check bool) "LOAD with a negative count" true (rejected "LOAD -1\n");
  (let decoded s =
     match Wire.parse_request s with
     | Ok (Wire.Load b) -> Wire.facts_of_load b
     | Ok _ -> Error "parsed as a non-LOAD request"
     | Error m -> Error m
   in
   Alcotest.(check bool) "truncated block decodes to Error" true
     (Result.is_error (decoded "LOAD 2\n"));
   Alcotest.(check bool) "non-ground block decodes to Error" true
     (Result.is_error
        (decoded (Wire.print_request (Wire.load_of_facts [ Atom.make "p" [ Term.Var "X" ] ]))));
   Alcotest.(check bool) "well-formed block decodes" true
     (decoded (Wire.print_request (Wire.load_of_facts [ atom "e(a, b)" ]))
     = Ok [ atom "e(a, b)" ]))

let test_wire_responses () =
  let resps =
    [
      Wire.Ok;
      Wire.Bye;
      Wire.Answers [];
      Wire.Answers
        [
          [ Term.Const "a"; Term.Const "Hello" ];
          List.map (fun c -> Term.Const c) awkward_constants;
        ];
      Wire.Committed { added = 3; removed = 1; epoch = 42 };
      Wire.Loaded 12345;
      Wire.Failed "no such relation";
      Wire.Stats_reply
        {
          Wire.s_epoch = 1;
          s_facts = 2;
          s_edb_facts = 3;
          s_queries = 4;
          s_batches = 5;
          s_queue_depth = 6;
          s_connections = 7;
          s_total_connections = 8;
          s_connections_open = 7;
          s_bytes_buffered = 21;
          s_backpressure_stalls = 22;
          s_load_facts = 23;
          s_query_p50_us = 9;
          s_query_p95_us = 10;
          s_commit_p50_us = 11;
          s_commit_p95_us = 12;
          s_relations = 13;
          s_index_runs = 14;
          s_storage_bytes = 15;
          s_cache_hits = 16;
          s_cache_misses = 17;
          s_cache_entries = 18;
          s_cache_evictions = 19;
          s_heap_kb = 20;
          s_demand = 1;
          s_chase_mode = 0;
          s_chase_nulls = 24;
          s_chase_derivations = 25;
          s_role = 1;
          s_replicas_connected = 2;
          s_replication_lag_epochs = 3;
          s_journal_bytes = 4096;
        };
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) (Wire.print_response r) true (roundtrip_response r))
    resps;
  (* a declared count that disagrees with the tuple lines is rejected *)
  Alcotest.(check bool) "count mismatch" true
    (Result.is_error (Wire.parse_response "ANSWERS 2\n(a)"))

(* Random facts over the generator signature, sometimes with awkward
   constants spliced in, must round-trip through the +/- request forms
   and through Delta's own text form. *)
let gen_awkward_fact =
  QCheck.Gen.(
    let* base = gen_fact in
    let* aw = oneofl awkward_constants in
    let* splice = bool in
    if splice && Atom.args base <> [] then
      return
        (Atom.make (Atom.rel base)
           (Term.Const aw :: List.tl (Atom.args base)))
    else return base)

let prop_wire_fact_roundtrip =
  QCheck.Test.make ~count:200 ~name:"wire: +fact/-fact round-trip"
    (QCheck.make ~print:Atom.to_string gen_awkward_fact)
    (fun a -> roundtrip_request (Wire.Add a) && roundtrip_request (Wire.Remove a))

let gen_delta =
  QCheck.Gen.(
    pair (list_size (int_range 0 4) gen_awkward_fact) (list_size (int_range 0 4) gen_awkward_fact)
    >|= fun (additions, deletions) -> Delta.of_lists ~additions ~deletions)

let delta_equal (a : Delta.t) (b : Delta.t) =
  List.equal Atom.equal a.Delta.additions b.Delta.additions
  && List.equal Atom.equal a.Delta.deletions b.Delta.deletions

let prop_delta_text_roundtrip =
  QCheck.Test.make ~count:200 ~name:"delta: of_string ∘ pp = id"
    (QCheck.make ~print:(Fmt.to_to_string Delta.pp) gen_delta)
    (fun d -> delta_equal d (Delta.of_string (Fmt.to_to_string Delta.pp d)))

(* ------------------------------------------------------------------ *)
(* Update files: whole-file validation with line numbers               *)

let test_batches_of_string () =
  let batches = Delta.batches_of_string "+p(a).\n-q(b, c)\n\n# note\n+r(d).\n\n\n+s(e)." in
  Alcotest.(check int) "three batches" 3 (List.length batches);
  Alcotest.(check bool) "first batch" true
    (delta_equal (List.nth batches 0)
       (Delta.of_lists ~additions:[ atom "p(a)" ] ~deletions:[ atom "q(b, c)" ]));
  (match Delta.batches_of_string "+p(a).\n\n+q(b).\nwat\n+r(c)." with
  | _ -> Alcotest.fail "malformed line accepted"
  | exception Delta.Malformed { line; _ } -> Alcotest.(check int) "1-based line" 4 line);
  (* a malformed line late in the file must reject earlier batches too *)
  (match Delta.batches_of_string "+p(a).\n\nbroken" with
  | _ -> Alcotest.fail "trailing malformed line accepted"
  | exception Delta.Malformed { line; _ } -> Alcotest.(check int) "last line" 3 line);
  Alcotest.(check int) "empty text: no batches" 0
    (List.length (Delta.batches_of_string "\n# only a comment\n\n"))

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let test_codec_roundtrip () =
  let sigma = theory "e(X, Y) -> path(X, Y). e(X, Z), path(Z, Y) -> path(X, Y). s(X), not path(X, X) -> acyclic(X). c(C) -> exists L. t(L, C)." in
  let d = db "e(a, b). e(b, c). p('Hello', 'a b'). q('')." in
  let buf = Buffer.create 256 in
  Codec.write_theory buf sigma;
  Codec.write_database buf d;
  Codec.write_varint buf 0;
  Codec.write_varint buf max_int;
  let encoded = Buffer.contents buf in
  let src = Codec.source_of_string encoded in
  let sigma' = Codec.read_theory src in
  let d' = Codec.read_database src in
  Alcotest.(check int) "varint 0" 0 (Codec.read_varint src);
  Alcotest.(check int) "varint max" max_int (Codec.read_varint src);
  Codec.expect_end src;
  Alcotest.(check bool) "theory round-trips" true
    (List.equal Rule.equal (Theory.rules sigma) (Theory.rules sigma'));
  check_db "database round-trips" d d';
  (* every strict prefix must be rejected, never crash *)
  for len = 0 to String.length encoded - 1 do
    let src = Codec.source_of_string (String.sub encoded 0 len) in
    match
      let _ = Codec.read_theory src in
      let _ = Codec.read_database src in
      let _ = Codec.read_varint src in
      let _ = Codec.read_varint src in
      Codec.expect_end src
    with
    | () -> Alcotest.failf "prefix of %d bytes accepted" len
    | exception Codec.Corrupt _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

let with_tmp_file f =
  let path = Filename.temp_file "guarded_test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let path_sigma = "e(X, Y) -> path(X, Y). e(X, Y), path(Y, Z) -> path(X, Z)."

let test_snapshot_roundtrip () =
  with_tmp_file (fun path ->
      let sigma = theory path_sigma in
      let m = Incr.materialize sigma (db "e(a, b). e(b, c). e('Hello', 'a b').") in
      ignore (Incr.apply m (Delta.of_lists ~additions:[ atom "e(c, d)" ] ~deletions:[]));
      Snapshot.save ~path sigma (Incr.dump m);
      (* warm restart equals the live materialization... *)
      let sigma', warm = Snapshot.load path in
      Alcotest.(check bool) "program restored" true
        (List.equal Rule.equal (Theory.rules sigma) (Theory.rules sigma'));
      check_db "warm db" (Incr.db m) (Incr.db warm);
      check_db "warm edb" (Incr.edb m) (Incr.edb warm);
      (* ...equals cold re-materialization from the same EDB... *)
      let cold = Incr.materialize sigma (Incr.edb m) in
      check_db "warm = cold" (Incr.db cold) (Incr.db warm);
      (* ...and keeps maintaining correctly after the restart. *)
      ignore (Incr.apply warm (Delta.of_lists ~additions:[] ~deletions:[ atom "e(b, c)" ]));
      check_db "maintains after warm start"
        (Seminaive.eval sigma (db "e(a, b). e(c, d). e('Hello', 'a b')."))
        (Incr.db warm);
      (* the guarded load rejects a snapshot of a different program *)
      (match Snapshot.load_for path (theory "e(X, Y) -> path(X, Y).") with
      | _ -> Alcotest.fail "foreign program accepted"
      | exception Snapshot.Corrupt _ -> ()))

let test_snapshot_corruption () =
  with_tmp_file (fun path ->
      let sigma = theory path_sigma in
      let m = Incr.materialize sigma (db "e(a, b). e(b, c).") in
      Snapshot.save ~path sigma (Incr.dump m);
      let raw =
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let reject name bytes =
        let oc = open_out_bin path in
        output_string oc bytes;
        close_out oc;
        match Snapshot.load path with
        | _ -> Alcotest.failf "%s accepted" name
        | exception Snapshot.Corrupt _ -> ()
      in
      reject "empty file" "";
      reject "bad magic" ("XXXXXXXX" ^ String.sub raw 8 (String.length raw - 8));
      reject "future version" ("GRDSNAP9" ^ String.sub raw 8 (String.length raw - 8));
      reject "truncated" (String.sub raw 0 (String.length raw - 5));
      reject "trailing garbage" (raw ^ "extra");
      (let flipped = Bytes.of_string raw in
       let i = String.length raw / 2 in
       Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0xff));
       reject "checksum catches a flipped byte" (Bytes.to_string flipped));
      (* the pristine bytes still load *)
      let oc = open_out_bin path in
      output_string oc raw;
      close_out oc;
      let _, warm = Snapshot.load path in
      check_db "pristine bytes load" (Incr.db m) (Incr.db warm))

(* ------------------------------------------------------------------ *)
(* State: commit results, errors, shutdown                             *)

let test_state_basics () =
  let st = State.create (theory path_sigma) (db "e(a, b).") in
  Alcotest.(check int) "epoch 0" 0 (State.epoch st);
  (match State.commit st (Delta.of_lists ~additions:[ atom "e(b, c)" ] ~deletions:[]) with
  | Ok r ->
    Alcotest.(check int) "epoch 1" 1 r.State.cr_epoch;
    Alcotest.(check bool) "derived" true (r.State.cr_added >= 2)
  | Error m -> Alcotest.fail m);
  State.with_read st (fun m ->
      Alcotest.(check bool) "path(a, c) served" true (Database.mem (Incr.db m) (atom "path(a, c)")));
  State.shutdown st;
  (match State.commit st (Delta.of_lists ~additions:[ atom "e(c, d)" ] ~deletions:[]) with
  | Ok _ -> Alcotest.fail "commit accepted after shutdown"
  | Error _ -> ());
  (* idempotent *)
  State.shutdown st

(* ------------------------------------------------------------------ *)
(* Socket smoke: a real server on a Unix socket                        *)

let with_server ?snapshot sigma_text db_text f =
  let sock = Filename.temp_file "guarded" ".sock" in
  Sys.remove sock;
  let st = State.create (theory sigma_text) (db db_text) in
  let srv = Server.listen ?snapshot st (Server.Unix_socket sock) in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let test_server_socket () =
  with_server path_sigma "e(a, b). e(b, c)." (fun srv ->
      let c = Client.connect (Server.address srv) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          Alcotest.(check int) "three paths" 3 (List.length (Client.query c "path"));
          (* a pattern query *)
          (match Client.request c (Wire.Query { rel = "path"; pattern = Some [ Term.Const "a"; Term.Var "X" ] }) with
          | Wire.Answers tuples -> Alcotest.(check int) "from a" 2 (List.length tuples)
          | _ -> Alcotest.fail "expected answers");
          (* an update batch through the protocol *)
          (match Client.commit c (Delta.of_lists ~additions:[ atom "e(c, d)" ] ~deletions:[]) with
          | Ok (added, _, epoch) ->
            Alcotest.(check bool) "cascade" true (added >= 3);
            Alcotest.(check int) "epoch" 1 epoch
          | Error m -> Alcotest.fail m);
          Alcotest.(check int) "six paths" 6 (List.length (Client.query c "path"));
          (* errors are answers, not disconnects *)
          (match Client.request_line c "? no_such_relation" with
          | Wire.Answers [] -> ()
          | Wire.Failed _ -> ()
          | _ -> Alcotest.fail "unexpected reply");
          Alcotest.(check int) "still serving" 6 (List.length (Client.query c "path"));
          let s = Client.stats c in
          Alcotest.(check int) "one connection" 1 s.Wire.s_connections;
          Alcotest.(check int) "one batch" 1 s.Wire.s_batches;
          Alcotest.(check bool) "queries counted" true (s.Wire.s_queries >= 3)))

let test_server_snapshot_command () =
  with_tmp_file (fun snap ->
      Sys.remove snap;
      with_server ~snapshot:snap path_sigma "e(a, b)." (fun srv ->
          let c = Client.connect (Server.address srv) in
          Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
              (match Client.commit c (Delta.of_lists ~additions:[ atom "e(b, c)" ] ~deletions:[]) with
              | Ok _ -> ()
              | Error m -> Alcotest.fail m);
              (match Client.request c (Wire.Snapshot None) with
              | Wire.Ok -> ()
              | _ -> Alcotest.fail "snapshot command failed");
              let _, warm = Snapshot.load snap in
              Alcotest.(check bool) "snapshot has the committed fact" true
                (Database.mem (Incr.db warm) (atom "path(a, c)")))))

(* ------------------------------------------------------------------ *)
(* The concurrency oracle: concurrent clients = some sequential order  *)

(* Each client thread runs its schedule of batches, interleaving reads;
   every commit reports the epoch the writer assigned. Replaying all
   batches sorted by epoch against a fresh EDB must reproduce the final
   EDB, and the final materialization must equal from-scratch
   evaluation of that EDB — i.e. the concurrent history is equivalent
   to a sequential one. *)
let run_concurrent_case ?pool (sigma, db0, schedules) =
  let st = State.create ?pool sigma db0 in
  let applied = Mutex.create () in
  let order = ref [] in
  let failures = ref [] in
  let client schedule =
    List.iter
      (fun d ->
        (* a read between commits: consistent view under the lock *)
        State.with_read st (fun m ->
            let db = Incr.db m in
            if Database.cardinal db < Database.cardinal (Incr.edb m) then
              failwith "materialization smaller than its EDB");
        match State.commit st d with
        | Ok r ->
          Mutex.lock applied;
          order := (r.State.cr_epoch, d) :: !order;
          Mutex.unlock applied
        | Error m ->
          Mutex.lock applied;
          failures := m :: !failures;
          Mutex.unlock applied)
      schedule
  in
  let threads = List.map (fun s -> Thread.create client s) schedules in
  List.iter Thread.join threads;
  let final_db, final_edb =
    State.with_read st (fun m -> (Database.copy (Incr.db m), Database.copy (Incr.edb m)))
  in
  State.shutdown st;
  if !failures <> [] then false
  else begin
    let reference = Database.copy db0 in
    List.iter
      (fun (_, (d : Delta.t)) ->
        List.iter (fun f -> ignore (Database.remove reference f)) d.Delta.deletions;
        List.iter (fun f -> ignore (Database.add reference f)) d.Delta.additions)
      (List.sort (fun (a, _) (b, _) -> compare a b) !order);
    Database.equal final_edb reference
    && Database.equal final_db (Seminaive.eval ?pool sigma reference)
  end

let gen_plain_delta =
  QCheck.Gen.(
    pair (list_size (int_range 0 3) gen_fact) (list_size (int_range 0 3) gen_fact)
    >|= fun (additions, deletions) -> Delta.of_lists ~additions ~deletions)

let gen_schedules =
  QCheck.Gen.(list_size (int_range 2 3) (list_size (int_range 1 3) gen_plain_delta))

let print_concurrent_case (sigma, d, schedules) =
  Fmt.str "%s@.---@.%a@.---@.%a" (Theory.to_string sigma) Database.pp d
    (Fmt.list ~sep:(Fmt.any "@.===@.") (Fmt.list ~sep:(Fmt.any "@.---@.") Delta.pp))
    schedules

let arbitrary_concurrent_case arb_theory =
  QCheck.make ~print:print_concurrent_case
    QCheck.Gen.(triple (QCheck.gen arb_theory) (gen_db ()) gen_schedules)

let prop_concurrent_datalog =
  QCheck.Test.make ~count:35 ~name:"concurrent clients = sequential replay (Datalog)"
    (arbitrary_concurrent_case arbitrary_datalog) run_concurrent_case

let prop_concurrent_semipositive =
  QCheck.Test.make ~count:35 ~name:"concurrent clients = sequential replay (semipositive)"
    (arbitrary_concurrent_case arbitrary_semipositive) run_concurrent_case

let pool = lazy (Pool.create ~domains:2 ~min_work:1 ~oversubscribe:true ())

let prop_concurrent_datalog_pool =
  QCheck.Test.make ~count:20 ~name:"concurrent clients = sequential replay (Datalog, pool)"
    (arbitrary_concurrent_case arbitrary_datalog) (fun case ->
      run_concurrent_case ~pool:(Lazy.force pool) case)

let prop_concurrent_semipositive_pool =
  QCheck.Test.make ~count:20
    ~name:"concurrent clients = sequential replay (semipositive, pool)"
    (arbitrary_concurrent_case arbitrary_semipositive) (fun case ->
      run_concurrent_case ~pool:(Lazy.force pool) case)

(* The same oracle through real sockets: a smaller deterministic run
   with several client connections hammering one server. *)
let test_concurrent_sockets () =
  with_server path_sigma "e(n0, n1)." (fun srv ->
      let n_clients = 4 and n_rounds = 6 in
      let errors = Mutex.create () in
      let failed = ref [] in
      let client k () =
        let c = Client.connect (Server.address srv) in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            for i = 1 to n_rounds do
              ignore (Client.query c "path");
              let a = atom (Fmt.str "e(n%d, n%d)" (k * 10 + i) ((k * 10 + i) + 1)) in
              match Client.commit c (Delta.of_lists ~additions:[ a ] ~deletions:[]) with
              | Ok _ -> ()
              | Error m ->
                Mutex.lock errors;
                failed := m :: !failed;
                Mutex.unlock errors
            done)
      in
      let threads = List.init n_clients (fun k -> Thread.create (client k) ()) in
      List.iter Thread.join threads;
      Alcotest.(check (list string)) "no failed commits" [] !failed;
      let c = Client.connect (Server.address srv) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let s = Client.stats c in
          Alcotest.(check int) "all batches committed" (n_clients * n_rounds) s.Wire.s_batches;
          Alcotest.(check int) "epoch = batches" (n_clients * n_rounds) s.Wire.s_epoch;
          (* 1 edge initially + one per committed batch, all disjoint *)
          Alcotest.(check int) "edb facts" (1 + (n_clients * n_rounds)) s.Wire.s_edb_facts))

(* ------------------------------------------------------------------ *)
(* Incremental framing: delivery chunking must be invisible            *)

let raw_connect = function
  | Server.Unix_socket path ->
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.connect fd (ADDR_UNIX path);
    fd
  | Server.Tcp (host, port) ->
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string host, port));
    fd

let frame payload =
  let n = String.length payload in
  let b = Buffer.create (4 + n) in
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_string b payload;
  Buffer.contents b

(* Write the whole byte stream in the given chunk sizes (remainder as
   one write), then collect every response frame until the server
   closes — each session ends in QUIT, so EOF is the terminator. *)
let deliver addr stream chunk_sizes =
  let fd = raw_connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let pos = ref 0 and len = String.length stream in
      let sizes = ref chunk_sizes in
      while !pos < len do
        let k =
          match !sizes with
          | [] -> len - !pos
          | k :: tl ->
            sizes := tl;
            min k (len - !pos)
        in
        pos := !pos + Unix.write_substring fd stream !pos k
      done;
      let rec read_all acc =
        match Wire.read_frame fd with
        | None -> List.rev acc
        | Some payload -> read_all (payload :: acc)
      in
      read_all [])

let gen_session =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (frequency
         [
           (3, gen_fact >|= fun a -> Wire.Add a);
           (2, gen_fact >|= fun a -> Wire.Remove a);
           (2, gen_fact >|= fun a -> Wire.load_of_facts [ a; a ]);
           (2, return (Wire.Query { rel = "path"; pattern = None }));
           (1, return Wire.Commit);
         ]))

(* The reactor cuts frames incrementally off whatever read(2) returns,
   so a session delivered one byte at a time — every frame header and
   payload split across reads — must produce byte-identical responses
   to whole-stream delivery, as must random-sized chunks. *)
let prop_chunked_delivery =
  QCheck.Test.make ~count:20 ~name:"server: chunked delivery = whole-stream delivery"
    (QCheck.make
       ~print:(fun (reqs, seed) ->
         Fmt.str "seed %d:@.%a" seed
           (Fmt.list ~sep:Fmt.cut (Fmt.of_to_string (fun r -> String.escaped (Wire.print_request r))))
           reqs)
       QCheck.Gen.(pair gen_session int))
    (fun (reqs, seed) ->
      let stream = String.concat "" (List.map (fun r -> frame (Wire.print_request r)) (reqs @ [ Wire.Quit ])) in
      let run chunk_sizes =
        with_server path_sigma "e(a, b)." (fun srv -> deliver (Server.address srv) stream chunk_sizes)
      in
      let whole = run [] in
      let bytewise = run (List.init (String.length stream) (fun _ -> 1)) in
      let rng = Random.State.make [| seed |] in
      let chunked = run (List.init (String.length stream) (fun _ -> 1 + Random.State.int rng 9)) in
      whole = bytewise && whole = chunked)

(* A frame whose declared length exceeds the limit is answered with
   ERROR and the connection closed — without taking the reactor (or
   any other connection) down. A merely unparsable payload keeps the
   connection. *)
let test_frame_rejection () =
  with_server path_sigma "e(a, b)." (fun srv ->
      let addr = Server.address srv in
      (* oversized declared length *)
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let n = Wire.max_frame + 1 in
          let hdr =
            String.init 4 (fun i -> Char.chr ((n lsr ((3 - i) * 8)) land 0xff))
          in
          ignore (Unix.write_substring fd hdr 0 4);
          (match Wire.read_frame fd with
          | Some payload -> (
            match Wire.parse_response payload with
            | Ok (Wire.Failed _) -> ()
            | _ -> Alcotest.fail "expected ERROR for the oversized frame")
          | None -> Alcotest.fail "no reply to the oversized frame");
          Alcotest.(check bool) "connection closed" true (Wire.read_frame fd = None));
      (* a malformed payload is an ERROR, not a disconnect *)
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          ignore
            (Unix.write_substring fd (frame "FROBNICATE now") 0
               (String.length (frame "FROBNICATE now")));
          (match Wire.read_frame fd with
          | Some payload -> (
            match Wire.parse_response payload with
            | Ok (Wire.Failed _) -> ()
            | _ -> Alcotest.fail "expected ERROR for the malformed payload")
          | None -> Alcotest.fail "connection dropped on a malformed payload");
          ignore (Unix.write_substring fd (frame "? path") 0 (String.length (frame "? path")));
          match Wire.read_frame fd with
          | Some payload -> (
            match Wire.parse_response payload with
            | Ok (Wire.Answers tuples) ->
              Alcotest.(check int) "still answering" 1 (List.length tuples)
            | _ -> Alcotest.fail "expected ANSWERS after the ERROR")
          | None -> Alcotest.fail "connection dropped after the ERROR");
      (* a truncated frame at EOF is dropped quietly *)
      let fd = raw_connect addr in
      ignore (Unix.write_substring fd "\000\000" 0 2);
      Unix.close fd;
      (* ...and the reactor serves the next client as if nothing happened *)
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> Alcotest.(check int) "reactor unpoisoned" 1 (List.length (Client.query c "path"))))

(* ------------------------------------------------------------------ *)
(* LOAD = text ingest                                                  *)

let with_state_server ?(demand = false) sigma_text db_text f =
  let sock = Filename.temp_file "guarded" ".sock" in
  Sys.remove sock;
  let st =
    if demand then State.create_demand (theory sigma_text) (db db_text)
    else State.create (theory sigma_text) (db db_text)
  in
  let srv = Server.listen st (Server.Unix_socket sock) in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f st srv)

(* Staging a random fact list through chunked binary LOAD frames and
   committing must leave exactly the database that the same facts
   staged as [+fact.] lines leave. *)
let run_load_equivalence facts =
  let run use_load =
    with_state_server path_sigma "e(a, b)." (fun st srv ->
        let c = Client.connect (Server.address srv) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            (if use_load then begin
               match Client.load ~chunk:7 c facts with
               | Ok n ->
                 if n <> List.length facts then
                   QCheck.Test.fail_reportf "LOADED %d of %d facts" n (List.length facts)
               | Error m -> QCheck.Test.fail_reportf "LOAD failed: %s" m
             end
             else
               List.iter
                 (function
                   | Wire.Ok -> ()
                   | Wire.Failed m -> QCheck.Test.fail_reportf "add failed: %s" m
                   | _ -> QCheck.Test.fail_reportf "unexpected staging reply")
                 (Client.pipeline c (List.map (fun a -> Wire.Add a) facts)));
            ignore (Client.request c Wire.Commit));
        State.with_read st (fun m -> (Database.copy (Incr.edb m), Database.copy (Incr.db m))))
  in
  let edb_text, db_text = run false in
  let edb_load, db_load = run true in
  Database.equal edb_text edb_load && Database.equal db_text db_load

let prop_load_equals_text =
  QCheck.Test.make ~count:20 ~name:"server: LOAD ingest = text ingest"
    (QCheck.make
       ~print:(Fmt.to_to_string (Fmt.list ~sep:Fmt.cut Atom.pp))
       QCheck.Gen.(list_size (int_range 0 40) gen_fact))
    run_load_equivalence

(* The same equivalence through the demand-driven backend, where the
   oracle is the served answer set instead of the materialization. *)
let test_load_demand () =
  let facts = List.init 50 (fun i -> atom (Fmt.str "e(m%d, m%d)" i (i + 1))) in
  let answers use_load =
    with_state_server ~demand:true path_sigma "e(a, b)." (fun _st srv ->
        let c = Client.connect (Server.address srv) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            (if use_load then
               match Client.load ~chunk:16 c facts with
               | Ok 50 -> ()
               | Ok n -> Alcotest.failf "LOADED %d of 50" n
               | Error m -> Alcotest.fail m
             else
               List.iter
                 (function Wire.Ok -> () | _ -> Alcotest.fail "staging failed")
                 (Client.pipeline c (List.map (fun a -> Wire.Add a) facts)));
            (match Client.request c Wire.Commit with
            | Wire.Committed _ -> ()
            | _ -> Alcotest.fail "commit failed");
            List.sort compare (Client.query c "path")))
  in
  Alcotest.(check int) "same answer count" (List.length (answers false)) (List.length (answers true));
  Alcotest.(check bool) "same answers" true (answers false = answers true)

(* A LOAD block is decoded by the writer at COMMIT: a lying header or a
   corrupt block answers LOADED at staging time but fails the COMMIT,
   discards the whole staged batch and leaves the connection usable. *)
let test_load_corrupt_commit () =
  with_state_server path_sigma "e(a, b)." (fun _st srv ->
      let c = Client.connect (Server.address srv) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.request c (Wire.Add (atom "e(q1, q2)")) with
          | Wire.Ok -> ()
          | _ -> Alcotest.fail "staging a good fact failed");
          (match Client.request c (Wire.Load { Wire.fb_count = 2; fb_block = "" }) with
          | Wire.Loaded 2 -> ()
          | _ -> Alcotest.fail "expected LOADED 2 for the lying header");
          (match Client.request c Wire.Commit with
          | Wire.Failed _ -> ()
          | _ -> Alcotest.fail "expected the COMMIT to reject the corrupt block");
          Alcotest.(check int) "nothing was applied" 1 (List.length (Client.query c "path"));
          (* the failed COMMIT discarded the whole batch, good Add included *)
          (match Client.request c Wire.Commit with
          | Wire.Committed { added = 0; removed = 0; _ } -> ()
          | _ -> Alcotest.fail "expected an empty COMMIT after the discard");
          (* a non-ground block is rejected the same way *)
          (match Client.request c (Wire.load_of_facts [ Atom.make "p" [ Term.Var "X" ] ]) with
          | Wire.Loaded 1 -> ()
          | _ -> Alcotest.fail "expected LOADED 1 for the non-ground block");
          match Client.request c Wire.Commit with
          | Wire.Failed _ -> ()
          | _ -> Alcotest.fail "expected the COMMIT to reject the non-ground block"))

(* ------------------------------------------------------------------ *)
(* The reactor never waits on the state lock                           *)

(* All requests in one write, so the reactor reads them together. *)
let send_all fd reqs =
  let bytes = String.concat "" (List.map (fun r -> frame (Wire.print_request r)) reqs) in
  let n = String.length bytes in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd bytes !off (n - !off)
  done

let send fd req = send_all fd [ req ]

(* The next reply on [fd]; fails instead of hanging when none comes. *)
let recv_within fd =
  match Unix.select [ fd ] [] [] 10. with
  | [], _, _ -> Alcotest.fail "no reply within 10 s"
  | _ -> (
    match Wire.read_frame fd with
    | None -> Alcotest.fail "connection closed"
    | Some payload -> (
      match Wire.parse_response payload with Ok r -> r | Error m -> Alcotest.fail m))

let has_reply fd = match Unix.select [ fd ] [] [] 0. with [], _, _ -> false | _ -> true

let wait_until what cond =
  let deadline = Unix.gettimeofday () +. 10. in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting until %s" what;
    Thread.delay 0.001
  done

(* The writer holds or awaits the state lock. *)
let writer_busy st = State.try_read st ignore = None

let with_conns srv n f =
  let fds = List.init n (fun _ -> raw_connect (Server.address srv)) in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    (fun () -> f fds)

(* While connection A's large LOAD + COMMIT sits with the writer (the
   test holds a shared lock, so the writer waits for it), connection B
   gets its ROLE and staging replies at once; its query parks until A's
   batch is in and then sees it. *)
let test_parked_read () =
  with_state_server path_sigma "e(a, b)." (fun st srv ->
      with_conns srv 2 (function
        | [ a; b ] ->
          let n = 20_000 in
          send a (Wire.load_of_facts (List.init n (fun i -> atom (Fmt.str "e(x%d, y%d)" i i))));
          (match recv_within a with
          | Wire.Loaded k -> Alcotest.(check int) "LOADED" n k
          | _ -> Alcotest.fail "expected LOADED");
          State.with_backend st (fun _ ->
              send a Wire.Commit;
              wait_until "the writer awaits the lock with A's batch" (fun () -> writer_busy st);
              (* one write: the query is tried in the same pass that
                 answers ROLE and the staging line *)
              send_all b
                [
                  Wire.Role;
                  Wire.Add (atom "e(c, d)");
                  Wire.Query { rel = "path"; pattern = None };
                ];
              (match recv_within b with
              | Wire.Role_reply _ -> ()
              | _ -> Alcotest.fail "expected B's ROLE reply");
              (match recv_within b with Wire.Ok -> () | _ -> Alcotest.fail "expected B's OK");
              Alcotest.(check bool) "A's COMMITTED not yet sent" false (has_reply a);
              Alcotest.(check bool) "B's query parked" false (has_reply b));
          (match recv_within a with
          | Wire.Committed { epoch; _ } -> Alcotest.(check int) "A's epoch" 1 epoch
          | Wire.Failed m -> Alcotest.fail m
          | _ -> Alcotest.fail "expected A's COMMITTED");
          (match recv_within b with
          | Wire.Answers tuples ->
            Alcotest.(check int) "B sees A's batch" (n + 1) (List.length tuples)
          | _ -> Alcotest.fail "expected B's answers")
        | _ -> assert false))

(* A full commit queue parks COMMITs instead of failing them: with room
   for one batch and the writer held on another, 8 connections commit
   at once and every one gets its own epoch. *)
let test_parked_commit () =
  let sock = Filename.temp_file "guarded" ".sock" in
  Sys.remove sock;
  let st = State.create ~queue_capacity:1 (theory path_sigma) (db "e(a, b).") in
  let srv = Server.listen st (Server.Unix_socket sock) in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      with_conns srv 9 (fun all ->
          let probe = List.hd all and fds = List.tl all in
          State.with_backend st (fun _ ->
              List.iteri
                (fun i fd ->
                  send_all fd [ Wire.Add (atom (Fmt.str "e(k%d, l%d)" i i)); Wire.Commit ])
                fds;
              wait_until "the writer holds a batch" (fun () -> writer_busy st);
              (* Sent after every COMMIT, so answered in a pass that
                 has seen them all: at most one sits with the writer and
                 one in the queue, the rest are parked. *)
              send probe Wire.Role;
              (match recv_within probe with
              | Wire.Role_reply _ -> ()
              | _ -> Alcotest.fail "expected the probe's ROLE reply");
              List.iter
                (fun fd ->
                  match recv_within fd with Wire.Ok -> () | _ -> Alcotest.fail "expected OK")
                fds;
              Alcotest.(check bool) "no COMMIT answered yet" false (List.exists has_reply fds));
          let epochs =
            List.map
              (fun fd ->
                match recv_within fd with
                | Wire.Committed { epoch; _ } -> epoch
                | Wire.Failed m -> Alcotest.fail m
                | _ -> Alcotest.fail "expected COMMITTED")
              fds
          in
          Alcotest.(check (list int)) "epochs 1..8 once each" (List.init 8 succ)
            (List.sort compare epochs);
          let fd = List.hd fds in
          send fd (Wire.Query { rel = "path"; pattern = None });
          match recv_within fd with
          | Wire.Answers tuples -> Alcotest.(check int) "read afterwards" 9 (List.length tuples)
          | _ -> Alcotest.fail "expected answers"))

let suite =
  [
    Alcotest.test_case "wire: request round-trips" `Quick test_wire_requests;
    Alcotest.test_case "wire: response round-trips" `Quick test_wire_responses;
    Alcotest.test_case "update files: batches + line numbers" `Quick test_batches_of_string;
    Alcotest.test_case "codec: round-trip + truncation" `Quick test_codec_roundtrip;
    Alcotest.test_case "snapshot: warm = cold" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot: corruption rejected" `Quick test_snapshot_corruption;
    Alcotest.test_case "state: commit/read/shutdown" `Quick test_state_basics;
    Alcotest.test_case "server: socket session" `Quick test_server_socket;
    Alcotest.test_case "server: snapshot command" `Quick test_server_snapshot_command;
    Alcotest.test_case "server: concurrent socket clients" `Quick test_concurrent_sockets;
    Alcotest.test_case "server: frame rejection" `Quick test_frame_rejection;
    Alcotest.test_case "server: LOAD = text ingest (demand)" `Quick test_load_demand;
    Alcotest.test_case "server: corrupt LOAD fails the COMMIT" `Quick test_load_corrupt_commit;
    Alcotest.test_case "server: reads park behind the writer" `Quick test_parked_read;
    Alcotest.test_case "server: a full commit queue parks COMMIT" `Quick test_parked_commit;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_wire_fact_roundtrip;
        prop_delta_text_roundtrip;
        prop_chunked_delivery;
        prop_load_equals_text;
        prop_concurrent_datalog;
        prop_concurrent_semipositive;
        prop_concurrent_datalog_pool;
        prop_concurrent_semipositive_pool;
      ]
