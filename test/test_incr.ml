(** The incremental maintenance subsystem (lib/incr): unit tests for
    each maintenance path — DRed (delete/rederive) on every stratum,
    nonrecursive and recursive, including a high fan-in stratum whose
    facts have many derivations each; fallback recompute when negated
    relations change; ACDom upkeep; the subsumption-reduced translation
    of the serving benchmark's program, checked against the unreduced
    one — plus the oracle property: over random update schedules, the
    maintained materialization is set-equal to from-scratch semi-naive
    evaluation after every batch, with and without a worker pool. *)

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
(* Support on nonrecursive strata                                      *)

(* Two derivations of q(a): deleting one support keeps the fact, the
   second deletion removes it through a cascade. *)
let test_shared_support () =
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
let test_input_and_derived_support () =
  let sigma = theory "r(X, Y) -> p(X)." in
  let m = Incr.materialize sigma (db "r(a, b). p(a).") in
  ignore (Incr.apply m (delta ~del:[ "r(a, b)" ] ()));
  Alcotest.(check bool) "input support holds" true (Database.mem (Incr.db m) (atom "p(a)"));
  ignore (Incr.apply m (delta ~add:[ "r(a, b)" ] ~del:[ "p(a)" ] ()));
  Alcotest.(check bool) "derived support holds" true (Database.mem (Incr.db m) (atom "p(a)"));
  ignore (Incr.apply m (delta ~del:[ "r(a, b)" ] ()));
  Alcotest.(check bool) "no support left" false (Database.mem (Incr.db m) (atom "p(a)"))

(* High fan-in: every pair of hasTopic facts on a topic derives
   shared(topic), so each shared fact has n² derivations. Retiring the
   supports one at a time must keep shared(z) until the last one goes,
   and report exactly the facts that left: an overdeleted shared(z)
   that is rederived in the same batch is no net change. *)
let test_high_fan_in () =
  let sigma = theory "hasTopic(X0, Z), hasTopic(X1, Z) -> shared(Z)." in
  let n = 12 in
  let support i = Fmt.str "hasTopic(p%d, z)" i in
  let reference =
    Database.of_atoms (List.map atom (List.init n support @ [ "hasTopic(p0, w)"; "hasTopic(p1, w)" ]))
  in
  (* materialize copies the EDB, so [reference] stays the oracle's *)
  let m = Incr.materialize sigma reference in
  for i = 0 to n - 1 do
    let res = Incr.apply m (delta ~del:[ support i ] ()) in
    ignore (Database.remove reference (atom (support i)));
    let last = i = n - 1 in
    Alcotest.(check bool)
      (Fmt.str "shared(z) after %d of %d retired" (i + 1) n)
      (not last)
      (Database.mem (Incr.db m) (atom "shared(z)"));
    Alcotest.(check int)
      (Fmt.str "removals at retirement %d" (i + 1))
      (if last then 2 else 1) res.Incr.res_removed;
    Alcotest.(check int) (Fmt.str "additions at retirement %d" (i + 1)) 0 res.Incr.res_added;
    Alcotest.(check bool) "other topic untouched" true (Database.mem (Incr.db m) (atom "shared(w)"));
    check_db (Fmt.str "from scratch at retirement %d" (i + 1)) (Seminaive.eval sigma reference)
      (Incr.db m)
  done

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
(* The serving benchmark's program, reduced                            *)

(* fg_family 2, the Thm. 1 theory the serving benchmark translates. *)
let fg_family_2 =
  {|
  publication(X) -> exists K1, K2. keywords(X, K1, K2).
  keywords(X, K1, K2) -> hasTopic(X, K1).
  hasTopic(X0, Z), hasTopic(X1, Z) -> shared(Z).
  shared(Z), hasTopic(X0, Z), hasAuthor(X0, A) -> q(A).
|}

(* The facts of publication [i]: one or two authors out of 9, one
   topic out of 5, and now and then a self-loop that only the
   translation's equality-case rules (hasAuthor(X, X), hasTopic(X, X))
   can use. *)
let publication i =
  let p = Fmt.str "p%d" i in
  [
    Fmt.str "publication(%s)" p;
    Fmt.str "hasAuthor(%s, a%d)" p (i * 7 mod 9);
    Fmt.str "hasAuthor(%s, a%d)" p (i * 4 mod 9);
    Fmt.str "hasTopic(%s, t%d)" p (i mod 5);
  ]
  @ (if i mod 7 = 3 then [ Fmt.str "hasAuthor(%s, %s)" p p ] else [])
  @ if i mod 11 = 5 then [ Fmt.str "hasTopic(%s, %s)" p p ] else []

let publications lo hi = List.concat_map publication (List.init (hi - lo) (fun k -> lo + k))

(* The serving pipeline's Thm. 1 route (Pipeline.to_datalog on a
   frontier-guarded theory): normalize, rewrite to nearly guarded,
   saturate. The rewriting invents fresh Aux relations on every call,
   so both programs are saturated from one rewriting: the served one
   by {!Saturate.dat_nearly_guarded}, the unreduced one by the literal
   Fig. 3 closure, whose Datalog part is never subsumption-reduced. *)
let serve_translations sigma =
  let open Guarded_translate in
  let budget = Pipeline.default_budget in
  let normalized = Normalize.normalize sigma in
  let ng, _ = Rewrite_fg.rew_frontier_guarded ~max_rules:budget.max_expansion_rules normalized in
  let served, _ = Saturate.dat_nearly_guarded ~max_rules:budget.max_saturation_rules ng in
  let guarded, datalog = List.partition Classify.is_guarded_rule (Theory.rules ng) in
  let dat, _ =
    Saturate.dat_via_closure ~max_rules:budget.max_saturation_rules (Theory.of_rules guarded)
  in
  (served, Theory.of_rules (Theory.rules dat @ datalog))

(* The served program is reduced to a fixpoint of the reduction and has
   no recursive component; a serve-write-shaped schedule (a block of
   entities added and retired, then small batches that each enroll two
   entities and retire the previous two) maintains exactly the
   fixpoint of the unreduced translation after every batch, so the
   reduction dropped no rule the program needs. *)
let test_reduced_serve_program () =
  let sigma = theory fg_family_2 in
  Alcotest.(check string)
    "pipeline route" "frontier-guarded"
    (Classify.language_name (Classify.classify (Normalize.normalize sigma)));
  let program, unreduced = serve_translations sigma in
  Alcotest.(check int)
    "same size as the serving pipeline's program"
    (Theory.size
       (Guarded_translate.Pipeline.serving_program sigma).Guarded_translate.Pipeline.served_program)
    (Theory.size program);
  List.iter
    (fun comp ->
      let g = Guarded_datalog.Depgraph.of_theory comp in
      Alcotest.(check int)
        (Fmt.str "recursive relations in a %d-rule component" (Theory.size comp))
        0
        (Theory.Rel_set.cardinal (Guarded_datalog.Depgraph.recursive_relations g)))
    (Guarded_datalog.Depgraph.rule_components program);
  Alcotest.(check bool)
    "reduce is the identity" true
    (List.equal Rule.equal
       (Theory.rules (Guarded_translate.Subsumption.reduce program))
       (Theory.rules program));
  Alcotest.(check bool)
    (Fmt.str "unreduced has more rules (%d vs %d)" (Theory.size unreduced) (Theory.size program))
    true
    (Theory.size unreduced > Theory.size program);
  let facts l = List.map atom l in
  let initial = publications 0 30 in
  let reference = Database.of_atoms (facts initial) in
  let m = Incr.materialize program reference in
  let check label = check_db label (Seminaive.eval unreduced reference) (Incr.db m) in
  check "initial";
  let step label ~add ~del =
    ignore (Incr.apply m (Delta.of_lists ~additions:(facts add) ~deletions:(facts del)));
    List.iter (fun f -> ignore (Database.remove reference f)) (facts del);
    List.iter (fun f -> ignore (Database.add reference f)) (facts add);
    check label
  in
  let block = publications 30 45 in
  step "block added" ~add:block ~del:[];
  step "block retired" ~add:[] ~del:block;
  let prev = ref [] in
  for k = 0 to 7 do
    let batch = publications (45 + (2 * k)) (47 + (2 * k)) in
    step (Fmt.str "small batch %d" k) ~add:batch ~del:!prev;
    prev := batch
  done;
  step "last batch retired" ~add:[] ~del:!prev

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
   rounds and seeded head enumeration must maintain the same set. *)
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
    Alcotest.test_case "shared support: one of two derivations goes" `Quick test_shared_support;
    Alcotest.test_case "input + derived support" `Quick test_input_and_derived_support;
    Alcotest.test_case "high fan-in: support until the last goes" `Quick test_high_fan_in;
    Alcotest.test_case "dred: transitive closure" `Quick test_dred_transitive_closure;
    Alcotest.test_case "dred: self-supporting cycle dies" `Quick test_dred_cycle_unsupported;
    Alcotest.test_case "negation fallback" `Quick test_negation_fallback;
    Alcotest.test_case "acdom maintenance" `Quick test_acdom_maintenance;
    Alcotest.test_case "serve example 7" `Quick test_serve_example7;
    Alcotest.test_case "cq answers" `Quick test_cq_answers;
    Alcotest.test_case "batch semantics + refresh" `Quick test_batch_semantics_and_refresh;
    Alcotest.test_case "reduced serve program = unreduced" `Quick test_reduced_serve_program;
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
