(** The incremental maintenance subsystem (lib/incr): unit tests for
    each maintenance path — counting on nonrecursive strata, DRed on
    recursive ones, fallback recompute when negated relations change,
    ACDom upkeep — plus the oracle property: over random update
    schedules, the maintained materialization is set-equal to
    from-scratch semi-naive evaluation after every batch, with and
    without a worker pool. *)

open Guarded_core
open Guarded_gen.Generator
module Delta = Guarded_incr.Delta
module Incr = Guarded_incr.Incr
module Seminaive = Guarded_datalog.Seminaive
module Stratified = Guarded_datalog.Stratified
module Pool = Guarded_par.Pool

let theory = Helpers.theory
let db = Helpers.db
let atom = Helpers.atom

let delta ?(add = []) ?(del = []) () =
  Delta.of_lists ~additions:(List.map atom add) ~deletions:(List.map atom del)

let check_db = Alcotest.check (Alcotest.testable Database.pp Database.equal)

(* ------------------------------------------------------------------ *)
(* Delta parsing                                                       *)

let test_delta_parse () =
  let d = Delta.of_string "+p(a).\n# comment\n% another\n\n-r(a, b)\n+s(c)." in
  Alcotest.(check int) "size" 3 (Delta.size d);
  Alcotest.(check bool) "adds" true (List.map Atom.to_string d.Delta.additions = [ "p(a)"; "s(c)" ]);
  Alcotest.(check bool) "dels" true (List.map Atom.to_string d.Delta.deletions = [ "r(a, b)" ]);
  Alcotest.check_raises "bad line" (Failure "Delta.parse_line: expected +fact or -fact, got \"p(a).\"")
    (fun () -> ignore (Delta.of_string "p(a)."));
  Alcotest.(check bool) "non-ground rejected" true
    (match Delta.add_fact Delta.empty (atom "p(X)") with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Counting maintenance (nonrecursive strata)                          *)

(* Two derivations of q(a): deleting one support keeps the fact, the
   second deletion removes it through a cascade. *)
let test_counting_shared_support () =
  let sigma = theory "r(X, Y) -> p(X). p(X) -> q(X)." in
  let m = Incr.materialize sigma (db "r(a, b). r(a, c).") in
  Alcotest.(check bool) "q(a) in" true (Database.mem (Incr.db m) (atom "q(a)"));
  let res = Incr.apply m (delta ~del:[ "r(a, b)" ] ()) in
  Alcotest.(check int) "first deletion: net removals" 1 res.Incr.res_removed;
  Alcotest.(check bool) "q(a) survives" true (Database.mem (Incr.db m) (atom "q(a)"));
  let res = Incr.apply m (delta ~del:[ "r(a, c)" ] ()) in
  Alcotest.(check bool) "q(a) gone" false (Database.mem (Incr.db m) (atom "q(a)"));
  Alcotest.(check int) "cascade removed r, p, q" 3 res.Incr.res_removed

(* A derived fact that is also an input fact keeps its input support
   when the derivation dies, and its derived support when the input
   goes. *)
let test_counting_input_and_derived () =
  let sigma = theory "r(X, Y) -> p(X)." in
  let m = Incr.materialize sigma (db "r(a, b). p(a).") in
  ignore (Incr.apply m (delta ~del:[ "r(a, b)" ] ()));
  Alcotest.(check bool) "input support holds" true (Database.mem (Incr.db m) (atom "p(a)"));
  ignore (Incr.apply m (delta ~add:[ "r(a, b)" ] ~del:[ "p(a)" ] ()));
  Alcotest.(check bool) "derived support holds" true (Database.mem (Incr.db m) (atom "p(a)"));
  ignore (Incr.apply m (delta ~del:[ "r(a, b)" ] ()));
  Alcotest.(check bool) "no support left" false (Database.mem (Incr.db m) (atom "p(a)"))

(* ------------------------------------------------------------------ *)
(* DRed maintenance (recursive strata)                                 *)

let path_sigma = "e(X, Y) -> path(X, Y). e(X, Y), path(Y, Z) -> path(X, Z)."

let test_dred_transitive_closure () =
  let sigma = theory path_sigma in
  let m = Incr.materialize sigma (db "e(a, b). e(b, c). e(c, d). e(a, c).") in
  Alcotest.(check bool) "path(a,d) in" true (Database.mem (Incr.db m) (atom "path(a, d)"));
  (* Deleting e(b,c) overdeletes path(b,c)/path(a,c)/... but the
     rederivation restores everything still reachable via e(a,c). *)
  ignore (Incr.apply m (delta ~del:[ "e(b, c)" ] ()));
  let oracle = Seminaive.eval sigma (db "e(a, b). e(c, d). e(a, c).") in
  check_db "after edge deletion" oracle (Incr.db m);
  Alcotest.(check bool) "path(a,d) survives" true (Database.mem (Incr.db m) (atom "path(a, d)"));
  Alcotest.(check bool) "path(b,c) gone" false (Database.mem (Incr.db m) (atom "path(b, c)"));
  (* Insertions ride the plain delta cascade. *)
  ignore (Incr.apply m (delta ~add:[ "e(d, a)" ] ()));
  let oracle = Seminaive.eval sigma (db "e(a, b). e(c, d). e(a, c). e(d, a).") in
  check_db "after edge insertion" oracle (Incr.db m)

(* A cycle supports itself: DRed must not let it survive the loss of
   its external support (the classic counting counterexample). *)
let test_dred_cycle_unsupported () =
  let sigma = theory path_sigma in
  let m = Incr.materialize sigma (db "e(a, a).") in
  Alcotest.(check bool) "loop in" true (Database.mem (Incr.db m) (atom "path(a, a)"));
  ignore (Incr.apply m (delta ~del:[ "e(a, a)" ] ()));
  Alcotest.(check int) "empty" 0 (Database.cardinal (Incr.db m))

(* ------------------------------------------------------------------ *)
(* Stratified negation: updates to a negated relation recompute the
   stratum (fallback path) and the result matches the stratified
   chase. *)

let strat_sigma = "r(X, Y) -> p(X). s(X), not p(X) -> q(X)."

let strat_oracle edb_text =
  (Stratified.chase (theory strat_sigma) (db edb_text)).Stratified.db

let test_negation_fallback () =
  let sigma = theory strat_sigma in
  let m = Incr.materialize sigma (db "s(a). s(b). r(b, b).") in
  check_db "initial" (strat_oracle "s(a). s(b). r(b, b).") (Incr.db m);
  Alcotest.(check bool) "q(a) in" true (Database.mem (Incr.db m) (atom "q(a)"));
  (* p(a) appears -> the q stratum must retract q(a). *)
  let res = Incr.apply m (delta ~add:[ "r(a, c)" ] ()) in
  Alcotest.(check bool) "fallback ran" true (res.Incr.res_fallback_strata > 0);
  check_db "after add" (strat_oracle "s(a). s(b). r(b, b). r(a, c).") (Incr.db m);
  Alcotest.(check bool) "q(a) retracted" false (Database.mem (Incr.db m) (atom "q(a)"));
  (* p(b) disappears -> q(b) must appear. *)
  ignore (Incr.apply m (delta ~del:[ "r(b, b)" ] ()));
  check_db "after delete" (strat_oracle "s(a). s(b). r(a, c).") (Incr.db m);
  Alcotest.(check bool) "q(b) derived" true (Database.mem (Incr.db m) (atom "q(b)"))

(* ------------------------------------------------------------------ *)
(* ACDom maintenance                                                   *)

let acdom_sigma = "p(X), ACDom(Y) -> r(X, Y)."

let test_acdom_maintenance () =
  let sigma = theory acdom_sigma in
  let m = Incr.materialize sigma (db "p(a). s(b).") in
  let oracle edb_text = Seminaive.eval (theory acdom_sigma) (db edb_text) in
  check_db "initial" (oracle "p(a). s(b).") (Incr.db m);
  (* b's last occurrence goes away: ACDom(b) and r(a,b) must retract. *)
  ignore (Incr.apply m (delta ~del:[ "s(b)" ] ()));
  check_db "domain shrinks" (oracle "p(a).") (Incr.db m);
  Alcotest.(check bool) "r(a,b) gone" false (Database.mem (Incr.db m) (atom "r(a, b)"));
  (* A new constant enters the domain through any relation. *)
  ignore (Incr.apply m (delta ~add:[ "e(c, c)" ] ()));
  check_db "domain grows" (oracle "p(a). e(c, c).") (Incr.db m);
  Alcotest.(check bool) "r(a,c) derived" true (Database.mem (Incr.db m) (atom "r(a, c)"))

(* ------------------------------------------------------------------ *)
(* Serving the paper's Example 7 through the translation              *)

let test_serve_example7 () =
  let tr = Guarded_translate.Pipeline.to_datalog (Helpers.example7_theory ()) in
  let program = tr.Guarded_translate.Pipeline.datalog in
  let m = Incr.materialize program (db "a(k). c(k). a(m).") in
  let oracle edb_text = Seminaive.answers program (db edb_text) ~query:"d" in
  Helpers.check_answers "initial" (oracle "a(k). c(k). a(m).") (Incr.answers m ~query:"d");
  ignore (Incr.apply m (delta ~add:[ "c(m)" ] ()));
  Helpers.check_answers "after +c(m)" (oracle "a(k). c(k). a(m). c(m).") (Incr.answers m ~query:"d");
  ignore (Incr.apply m (delta ~del:[ "a(k)" ] ()));
  Helpers.check_answers "after -a(k)" (oracle "c(k). a(m). c(m).") (Incr.answers m ~query:"d");
  Helpers.check_answers "d tuples" (Helpers.tuples "m") (Incr.answers m ~query:"d")

(* CQ answering straight off the materialization. *)
let test_cq_answers () =
  let sigma = theory path_sigma in
  let m = Incr.materialize sigma (db "e(a, b). e(b, c).") in
  let q, _ = Guarded_cq.Cq.of_string "path(X, Y), path(Y, Z) -> two(X, Z)." in
  Helpers.check_answers "two-hop pairs" (Helpers.tuples "a, c")
    (Incr.cq_answers m ~body:q.Guarded_cq.Cq.body ~answer_vars:q.Guarded_cq.Cq.answer_vars)

(* Batch semantics: a fact deleted and added in the same batch stays; a
   fact added and deleted in two batches round-trips; refresh is a
   no-op on a consistent materialization. *)
let test_batch_semantics_and_refresh () =
  let sigma = theory path_sigma in
  let m = Incr.materialize sigma (db "e(a, b).") in
  let res = Incr.apply m (delta ~add:[ "e(a, b)" ] ~del:[ "e(a, b)" ] ()) in
  Alcotest.(check int) "wash batch adds nothing" 0 res.Incr.res_added;
  Alcotest.(check int) "wash batch removes nothing" 0 res.Incr.res_removed;
  Alcotest.(check bool) "fact still in" true (Database.mem (Incr.db m) (atom "e(a, b)"));
  let before = Database.copy (Incr.db m) in
  Incr.refresh m;
  check_db "refresh is the identity" before (Incr.db m)

(* ------------------------------------------------------------------ *)
(* The oracle property: maintained = from-scratch after every batch    *)

let gen_delta =
  QCheck.Gen.(
    pair (list_size (int_range 0 4) gen_fact) (list_size (int_range 0 4) gen_fact)
    >|= fun (additions, deletions) -> Delta.of_lists ~additions ~deletions)

let gen_schedule = QCheck.Gen.(list_size (int_range 1 4) gen_delta)

let print_case (sigma, d, schedule) =
  Fmt.str "%s@.---@.%a@.---@.%a" (Theory.to_string sigma) Database.pp d
    (Fmt.list ~sep:(Fmt.any "@.===@.") Delta.pp)
    schedule

let arbitrary_case arb_theory =
  QCheck.make ~print:print_case
    QCheck.Gen.(triple (QCheck.gen arb_theory) (gen_db ()) gen_schedule)

(* Run one schedule: apply every batch to the materialization and to a
   plain reference EDB, and demand set-equality with the from-scratch
   fixpoint (and EDB agreement) after every single batch. *)
let check_schedule ?pool (sigma, db0, schedule) =
  let m = Incr.materialize ?pool sigma db0 in
  let reference = Database.copy db0 in
  List.for_all
    (fun (d : Delta.t) ->
      ignore (Incr.apply m d);
      List.iter (fun f -> ignore (Database.remove reference f)) d.Delta.deletions;
      List.iter (fun f -> ignore (Database.add reference f)) d.Delta.additions;
      Database.equal (Incr.edb m) reference
      && Database.equal (Incr.db m) (Seminaive.eval ?pool sigma reference))
    schedule

let prop_oracle_datalog =
  QCheck.Test.make ~count:80 ~name:"incremental = from-scratch (recursive Datalog schedules)"
    (arbitrary_case arbitrary_datalog) check_schedule

let prop_oracle_semipositive =
  QCheck.Test.make ~count:80 ~name:"incremental = from-scratch (semipositive schedules)"
    (arbitrary_case arbitrary_semipositive) check_schedule

(* The same schedules through the pool runtime: parallel insertion
   rounds and seeded-instance enumeration must maintain the same set. *)
let pool = lazy (Pool.create ~domains:2 ~min_work:1 ~oversubscribe:true ())

let prop_oracle_datalog_pool =
  QCheck.Test.make ~count:40 ~name:"incremental = from-scratch (Datalog schedules, pool)"
    (arbitrary_case arbitrary_datalog) (fun case ->
      check_schedule ~pool:(Lazy.force pool) case)

let prop_oracle_semipositive_pool =
  QCheck.Test.make ~count:40 ~name:"incremental = from-scratch (semipositive schedules, pool)"
    (arbitrary_case arbitrary_semipositive) (fun case ->
      check_schedule ~pool:(Lazy.force pool) case)

(* Long deletion schedules shaped like a serving write load: each
   cycle adds a block of facts, retires it again, then runs small
   batches that each enroll a few facts and retire the ones the
   previous batch enrolled. 30+ batches churn the strata's stores
   through many removal rounds, so their index purges and array
   compactions run again and again under the oracle. *)
let gen_retire_schedule =
  QCheck.Gen.(
    let cycle =
      pair (list_size (int_range 12 24) gen_fact)
        (list_size (int_range 8 10) (list_size (int_range 1 4) gen_fact))
      >|= fun (block, smalls) ->
      let _, small_batches =
        List.fold_left
          (fun (prev, acc) adds ->
            (adds, Delta.of_lists ~additions:adds ~deletions:prev :: acc))
          ([], []) smalls
      in
      Delta.of_lists ~additions:block ~deletions:[]
      :: Delta.of_lists ~additions:[] ~deletions:block
      :: List.rev small_batches
    in
    list_repeat 3 cycle >|= List.concat)

let arbitrary_retire_case arb_theory =
  QCheck.make ~print:print_case
    QCheck.Gen.(triple (QCheck.gen arb_theory) (gen_db ()) gen_retire_schedule)

let prop_retire_datalog =
  QCheck.Test.make ~count:20 ~name:"incremental = from-scratch (block-retire schedules)"
    (arbitrary_retire_case arbitrary_datalog) check_schedule

let prop_retire_semipositive =
  QCheck.Test.make ~count:20 ~name:"incremental = from-scratch (block-retire, semipositive)"
    (arbitrary_retire_case arbitrary_semipositive) check_schedule

let prop_retire_datalog_pool =
  QCheck.Test.make ~count:10 ~name:"incremental = from-scratch (block-retire schedules, pool)"
    (arbitrary_retire_case arbitrary_datalog) (fun case ->
      check_schedule ~pool:(Lazy.force pool) case)

let prop_retire_semipositive_pool =
  QCheck.Test.make ~count:10 ~name:"incremental = from-scratch (block-retire, semipositive, pool)"
    (arbitrary_retire_case arbitrary_semipositive) (fun case ->
      check_schedule ~pool:(Lazy.force pool) case)

let suite =
  [
    Alcotest.test_case "delta parsing" `Quick test_delta_parse;
    Alcotest.test_case "counting: shared support" `Quick test_counting_shared_support;
    Alcotest.test_case "counting: input + derived support" `Quick test_counting_input_and_derived;
    Alcotest.test_case "dred: transitive closure" `Quick test_dred_transitive_closure;
    Alcotest.test_case "dred: self-supporting cycle dies" `Quick test_dred_cycle_unsupported;
    Alcotest.test_case "negation fallback" `Quick test_negation_fallback;
    Alcotest.test_case "acdom maintenance" `Quick test_acdom_maintenance;
    Alcotest.test_case "serve example 7" `Quick test_serve_example7;
    Alcotest.test_case "cq answers" `Quick test_cq_answers;
    Alcotest.test_case "batch semantics + refresh" `Quick test_batch_semantics_and_refresh;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_oracle_datalog;
        prop_oracle_semipositive;
        prop_oracle_datalog_pool;
        prop_oracle_semipositive_pool;
        prop_retire_datalog;
        prop_retire_semipositive;
        prop_retire_datalog_pool;
        prop_retire_semipositive_pool;
      ]
