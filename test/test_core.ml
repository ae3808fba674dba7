(** Unit tests for the core data structures: terms, atoms, literals,
    substitutions, rules, theories, parsing and printing. *)

open Guarded_core

let check = Alcotest.check
let cbool = Alcotest.bool
let cint = Alcotest.int
let cstring = Alcotest.string

(* --- terms ---------------------------------------------------------- *)

let test_term_compare () =
  check cbool "const < null" true (Term.compare (Const "z") (Null 0) < 0);
  check cbool "null < var" true (Term.compare (Null 5) (Var "a") < 0);
  check cbool "const order" true (Term.compare (Const "a") (Const "b") < 0);
  check cbool "equal" true (Term.equal (Null 3) (Null 3));
  check cbool "not equal" false (Term.equal (Var "x") (Const "x"))

let test_term_predicates () =
  check cbool "is_const" true (Term.is_const (Const "c"));
  check cbool "is_null" true (Term.is_null (Null 1));
  check cbool "is_var" true (Term.is_var (Var "x"));
  check cbool "ground const" true (Term.is_ground (Const "c"));
  check cbool "ground null" true (Term.is_ground (Null 0));
  check cbool "var not ground" false (Term.is_ground (Var "x"))

let test_term_pp () =
  check cstring "const" "c" (Term.to_string (Const "c"));
  check cstring "null" "_n4" (Term.to_string (Null 4));
  check cstring "var" "?x" (Term.to_string (Var "x"))

(* --- atoms ---------------------------------------------------------- *)

let test_atom_basics () =
  let a = Atom.make "r" [ Term.Var "x"; Term.Const "c" ] in
  check cint "arity" 2 (Atom.arity a);
  check (Alcotest.list cstring) "vars" [ "x" ] (Atom.vars a);
  check (Alcotest.list cstring) "constants" [ "c" ] (Atom.constants a);
  check cbool "not ground" false (Atom.is_ground a);
  check cbool "ground" true (Atom.is_ground (Atom.make "r" [ Term.Const "a"; Term.Null 0 ]))

let test_atom_annotation () =
  let a = Atom.make ~ann:[ Term.Var "u" ] "r" [ Term.Var "x" ] in
  check cstring "pp" "r[?u](?x)" (Atom.to_string a);
  check (Alcotest.list cstring) "all vars include annotation" [ "u"; "x" ]
    (List.sort compare (Atom.vars a));
  check (Alcotest.list cstring) "arg vars exclude annotation" [ "x" ] (Atom.arg_vars a);
  check cbool "distinct rel keys" true (Atom.rel_key a <> Atom.rel_key (Atom.make "r" [ Term.Var "x" ]))

let test_atom_map_terms () =
  let a = Atom.make ~ann:[ Term.Var "u" ] "r" [ Term.Var "x" ] in
  let a' = Atom.map_terms (fun _ -> Term.Const "k") a in
  check cstring "mapped" "r[k](k)" (Atom.to_string a')

(* --- substitutions -------------------------------------------------- *)

let test_subst_apply () =
  let s = Subst.of_list [ ("x", Term.Const "a"); ("y", Term.Null 7) ] in
  let a = Atom.make "r" [ Term.Var "x"; Term.Var "y"; Term.Var "z" ] in
  check cstring "apply" "r(a, _n7, ?z)" (Atom.to_string (Subst.apply_atom s a))

let test_subst_compose () =
  let s1 = Subst.of_list [ ("x", Term.Var "y") ] in
  let s2 = Subst.of_list [ ("y", Term.Const "c") ] in
  let s = Subst.compose s1 s2 in
  check cstring "x goes through" "c" (Term.to_string (Subst.apply_term s (Term.Var "x")));
  check cstring "y direct" "c" (Term.to_string (Subst.apply_term s (Term.Var "y")))

let test_subst_match_atom () =
  let pat = Atom.make "r" [ Term.Var "x"; Term.Var "x"; Term.Const "c" ] in
  let good = Atom.make "r" [ Term.Const "a"; Term.Const "a"; Term.Const "c" ] in
  let bad = Atom.make "r" [ Term.Const "a"; Term.Const "b"; Term.Const "c" ] in
  check cbool "match ok" true (Subst.match_atom Subst.empty pat good <> None);
  check cbool "repetition enforced" true (Subst.match_atom Subst.empty pat bad = None);
  let wrong_const = Atom.make "r" [ Term.Const "a"; Term.Const "a"; Term.Const "d" ] in
  check cbool "constant enforced" true (Subst.match_atom Subst.empty pat wrong_const = None)

(* --- rules ---------------------------------------------------------- *)

let test_rule_vars () =
  let r = Helpers.rule "r(X, Y), s(Y, Z) -> exists W. t(Z, W)." in
  check (Alcotest.list cstring) "uvars" [ "X"; "Y"; "Z" ] (Names.Sset.elements (Rule.uvars r));
  check (Alcotest.list cstring) "evars" [ "W" ] (Names.Sset.elements (Rule.evars r));
  check (Alcotest.list cstring) "frontier" [ "Z" ] (Names.Sset.elements (Rule.fvars r));
  check cbool "not datalog" false (Rule.is_datalog r)

let test_rule_safety () =
  let bad () = Helpers.rule "r(X) -> s(X, Y)." in
  Alcotest.check_raises "unsafe head var" (Rule.Ill_formed "unsafe rule: frontier variable Y not in a positive body atom")
    (fun () -> ignore (bad ()));
  let bad_evar () = Helpers.rule "r(X) -> exists X. s(X)." in
  (match bad_evar () with
  | exception Rule.Ill_formed _ -> ()
  | _ -> Alcotest.fail "existential variable in body accepted")

let test_rule_neg_safety () =
  match Helpers.rule "r(X), not s(Y) -> t(X)." with
  | exception Rule.Ill_formed _ -> ()
  | _ -> Alcotest.fail "unsafe negation accepted"

let test_rule_apply () =
  let r = Helpers.rule "r(X, Y) -> exists Z. t(Y, Z)." in
  let s = Subst.of_list [ ("X", Term.Const "a"); ("Y", Term.Const "b") ] in
  let r' = Rule.apply s r in
  check cstring "applied" "r(a, b) -> exists ?Z. t(b, ?Z)" (Rule.to_string r');
  (* capture avoidance: substituting Y := Z must rename the existential Z *)
  let s2 = Subst.of_list [ ("Y", Term.Var "Z") ] in
  let r2 = Rule.apply s2 r in
  check cbool "no capture" false (Names.Sset.mem "Z" (Rule.fvars r2) && Names.Sset.mem "Z" (Rule.evars r2))

let test_rule_canonicalize () =
  let r1 = Helpers.rule "r(A, B), s(B, C) -> t(C)." in
  let r2 = Helpers.rule "r(X, Y), s(Y, Z) -> t(Z)." in
  check cstring "canonical forms equal"
    (Rule.to_string (Rule.canonicalize r1))
    (Rule.to_string (Rule.canonicalize r2));
  let r3 = Helpers.rule "r(A, B), s(B, C) -> t(B)." in
  check cbool "different rules differ" true
    (Rule.to_string (Rule.canonicalize r1) <> Rule.to_string (Rule.canonicalize r3))

let test_rule_rename_apart () =
  let g = Names.gensym "fresh" in
  let r = Helpers.rule "r(X, Y) -> exists Z. t(Y, Z)." in
  let r' = Rule.rename_apart g r in
  check cbool "variables disjoint" true
    (Names.Sset.is_empty (Names.Sset.inter (Rule.vars r) (Rule.vars r')));
  check cstring "same canonical form"
    (Rule.to_string (Rule.canonicalize r))
    (Rule.to_string (Rule.canonicalize r'))

(* --- theory --------------------------------------------------------- *)

let test_theory_signature () =
  let sigma = Helpers.publications_theory () in
  check cint "rules" 4 (Theory.size sigma);
  check cint "max arity" 3 (Theory.max_arity sigma);
  check cbool "has keywords/3" true
    (Theory.Rel_set.mem ("keywords", 0, 3) (Theory.relations sigma));
  check cbool "not datalog" false (Theory.is_datalog sigma);
  check cint "max vars per rule" 5 (Theory.max_vars_per_rule sigma)

let test_theory_edb () =
  let sigma = Helpers.theory "e(X, Y) -> tc(X, Y). tc(X, Y), e(Y, Z) -> tc(X, Z)." in
  check cbool "e is edb" true (Theory.Rel_set.mem ("e", 0, 2) (Theory.edb_relations sigma));
  check cbool "tc is idb" false (Theory.Rel_set.mem ("tc", 0, 2) (Theory.edb_relations sigma))

let test_theory_dedup () =
  let sigma =
    Helpers.theory "r(X, Y) -> s(X). r(A, B) -> s(A). r(X, Y) -> s(Y)."
  in
  check cint "variants collapse" 2 (Theory.size (Theory.dedup sigma))

(* --- parser round trips --------------------------------------------- *)

let test_parser_roundtrip () =
  let texts =
    [
      "r(X, Y), s(Y) -> exists Z. t(X, Z).";
      "-> r(c).";
      "true -> r(c).";
      "r(X), not s(X) -> t(X).";
      "r[A, B](X) -> s[A](X).";
      "r(X) -> q().";
    ]
  in
  List.iter
    (fun text ->
      let r = Helpers.rule text in
      let r' = Helpers.rule (Rule.to_string r ^ ".") in
      check cstring (Fmt.str "round trip %s" text)
        (Rule.to_string (Rule.canonicalize r))
        (Rule.to_string (Rule.canonicalize r')))
    texts

let test_parser_errors () =
  let bad = [ "r(X -> s(X)."; "r(X) - s(X)."; "r(X) -> s(X)"; "'unterminated" ] in
  List.iter
    (fun text ->
      match Helpers.rule text with
      | exception Parser.Parse_error _ -> ()
      | exception Rule.Ill_formed _ -> ()
      | _ -> Alcotest.failf "accepted %S" text)
    bad

let test_parser_database () =
  let d = Helpers.db "r(a, b). s(_n3). t()." in
  check cint "three facts" 3 (Database.cardinal d);
  check cbool "null parsed" true (Database.mem d (Atom.make "s" [ Term.Null 3 ]));
  (match Helpers.db "r(X)." with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "non-ground database accepted")

let test_parser_datalog_style () =
  (* "head :- body." and bare facts parse to the same rules *)
  let r1 = Helpers.rule "tc(X, Z) :- tc(X, Y), e(Y, Z)." in
  let r2 = Helpers.rule "tc(X, Y), e(Y, Z) -> tc(X, Z)." in
  check cstring "same rule"
    (Rule.to_string (Rule.canonicalize r2))
    (Rule.to_string (Rule.canonicalize r1));
  let fact = Helpers.rule "r(c)." in
  check cstring "bare fact" "true -> r(c)" (Rule.to_string fact);
  let neg = Helpers.rule "ok(X) :- node(X), not bad(X)." in
  check cbool "negation in :- body" true (List.length (Rule.neg_body_atoms neg) = 1);
  (match Helpers.rule "r(X) :- s(X) -> t(X)." with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "mixed syntaxes accepted")

let test_parser_quoted () =
  let a = Helpers.atom "r('hello world', X)" in
  check (Alcotest.list cstring) "quoted constant" [ "hello world" ] (Atom.constants a)

(* --- database ------------------------------------------------------- *)

let test_database_ops () =
  let d = Database.create () in
  let a = Atom.make "r" [ Term.Const "a"; Term.Const "b" ] in
  check cbool "add new" true (Database.add d a);
  check cbool "add duplicate" false (Database.add d a);
  check cint "cardinal" 1 (Database.cardinal d);
  check cbool "mem" true (Database.mem d a);
  let copy = Database.copy d in
  ignore (Database.add copy (Atom.make "s" [ Term.Const "c" ]));
  check cint "copy isolated" 1 (Database.cardinal d);
  check cbool "equal reflexive" true (Database.equal d d);
  check cbool "not equal" false (Database.equal d copy)

let test_database_candidates () =
  let d = Helpers.db "r(a, b). r(a, c). r(b, c). s(a)." in
  let pattern = Atom.make "r" [ Term.Const "a"; Term.Var "x" ] in
  check cint "indexed lookup" 2 (List.length (Database.candidates d pattern));
  let pattern_all = Atom.make "r" [ Term.Var "x"; Term.Var "y" ] in
  check cint "full relation" 3 (List.length (Database.candidates d pattern_all))

let test_database_acdom () =
  let d = Helpers.db "r(a, b). s(c)." in
  Database.materialize_acdom d;
  check cint "three ACDom facts" 3
    (Database.rel_cardinal d (Database.acdom_rel, 0, 1));
  (* re-materializing is idempotent and ACDom terms are not in the
     active domain themselves *)
  Database.materialize_acdom d;
  check cint "idempotent" 3 (Database.rel_cardinal d (Database.acdom_rel, 0, 1))

(* Interleaved add/remove must keep every index consistent: candidate
   streams never yield removed facts, estimates track the true bucket
   sizes, and re-adding after removal behaves like a fresh add. *)
let test_database_remove () =
  let d = Helpers.db "r(a, b). r(a, c). r(b, c). s(a)." in
  let rab = Helpers.atom "r(a, b)" in
  check cbool "remove present" true (Database.remove d rab);
  check cbool "remove again" false (Database.remove d rab);
  check cbool "remove absent" false (Database.remove d (Helpers.atom "r(z, z)"));
  check cint "cardinal" 3 (Database.cardinal d);
  check cbool "mem gone" false (Database.mem d rab);
  let pattern = Atom.make "r" [ Term.Const "a"; Term.Var "x" ] in
  check cint "positional bucket shrank" 1 (Database.candidate_count d pattern);
  check cint "candidates shrank" 1 (List.length (Database.candidates d pattern));
  (* the removed row stays behind as a tombstone: iteration must see
     exactly the remaining facts, no stale entry, no omission *)
  let seen = ref [] in
  Database.iter (fun a -> seen := Atom.to_string a :: !seen) d;
  check (Alcotest.list cstring) "iteration after removal"
    [ "r(a, c)"; "r(b, c)"; "s(a)" ]
    (List.sort String.compare !seen);
  check cbool "re-add" true (Database.add d rab);
  check cint "positional bucket restored" 2 (Database.candidate_count d pattern)

(* A randomized interleaving of adds and removes, cross-checked against
   a reference set: candidate streams must coincide with a full scan at
   every step. *)
let test_database_add_remove_interleaved () =
  let d = Database.create () in
  let reference = Hashtbl.create 64 in
  let rng = Random.State.make [| 0x1ceb00da |] in
  let consts = [| "a"; "b"; "c" |] in
  let random_fact () =
    Atom.make "r"
      [
        Term.Const consts.(Random.State.int rng 3);
        Term.Const consts.(Random.State.int rng 3);
      ]
  in
  for _ = 1 to 500 do
    let a = random_fact () in
    if Random.State.bool rng then begin
      check cbool "add agrees" (not (Hashtbl.mem reference a)) (Database.add d a);
      Hashtbl.replace reference a ()
    end
    else begin
      check cbool "remove agrees" (Hashtbl.mem reference a) (Database.remove d a);
      Hashtbl.remove reference a
    end;
    check cint "cardinal agrees" (Hashtbl.length reference) (Database.cardinal d);
    (* every candidate stream yields exactly the live matching facts *)
    Array.iter
      (fun c ->
        let pattern = Atom.make "r" [ Term.Const c; Term.Var "x" ] in
        let streamed = ref [] in
        Database.iter_candidates d pattern (fun a -> streamed := a :: !streamed);
        let expected =
          Hashtbl.fold
            (fun a () acc ->
              match Atom.args a with
              | Term.Const c0 :: _ when String.equal c0 c -> a :: acc
              | _ -> acc)
            reference []
        in
        check cint "stream size" (List.length expected) (List.length !streamed);
        List.iter
          (fun a -> check cbool "stream is live" true (Hashtbl.mem reference a))
          !streamed)
      consts
  done

(* Tombstoned removal under long random schedules: grow and shrink
   phases alternate so the relation crosses the compaction threshold
   again and again (dozens of times on this schedule), facts are removed
   and re-added, and the journal rolls back across removals. After
   every step every view of the store — exact candidate counts,
   candidate streams, scans, cardinalities, storage stats and the
   worst-case-optimal join's value probes — must agree with a
   reference set: no dead row may surface anywhere. *)
let test_database_tombstones () =
  let d = Database.create () in
  Database.enable_journal d;
  let reference = Hashtbl.create 256 in
  let rng = Random.State.make [| 0x70b5 |] in
  let consts = [| "a"; "b"; "c"; "d" |] in
  let const i = Term.Const consts.(i) in
  let random_fact () =
    Atom.make "r" (List.init 3 (fun _ -> const (Random.State.int rng (Array.length consts))))
  in
  let key = Atom.rel_key (random_fact ()) in
  let var v = Term.Var v in
  let sorted l = List.sort_uniq Atom.compare l in
  let live () = sorted (Hashtbl.fold (fun a () acc -> a :: acc) reference []) in
  let arg a p = List.nth (Atom.args a) p in
  let live_values p facts = List.sort_uniq Term.compare (List.map (fun a -> arg a p) facts) in
  let ids ts = List.sort_uniq compare (List.map Term.id ts) in
  let check_views step =
    let facts = live () in
    let n = List.length facts in
    let msg what = Fmt.str "step %d: %s" step what in
    check cint (msg "cardinal") n (Database.cardinal d);
    check cint (msg "rel_cardinal") n (Database.rel_cardinal d key);
    check (Alcotest.list cstring) (msg "iter")
      (List.map Atom.to_string facts)
      (List.map Atom.to_string (sorted (Database.fold (fun a acc -> a :: acc) d [])));
    List.iter
      (fun (st : Database.rel_stats) ->
        if st.rs_rel = key then check cint (msg "storage_stats rows") n st.rs_rows)
      (Database.storage_stats d);
    check cint (msg "unbound candidate_count") n
      (Database.candidate_count d (Atom.make "r" [ var "X"; var "Y"; var "Z" ]));
    (* One bound position: the count is exact and the stream is exactly
       the live matching facts. *)
    for p = 0 to 2 do
      Array.iteri
        (fun i _ ->
          let pattern = Atom.make "r" (List.init 3 (fun q -> if q = p then const i else var (Fmt.str "V%d" q))) in
          let expected = List.filter (fun a -> Term.equal (arg a p) (const i)) facts in
          check cint (msg "candidate_count") (List.length expected) (Database.candidate_count d pattern);
          check (Alcotest.list cstring) (msg "candidates")
            (List.map Atom.to_string expected)
            (List.map Atom.to_string (sorted (Database.candidates d pattern))))
        consts
    done;
    (* Two bound positions: the count is the smaller bucket, every
       candidate is live, and every live match is a candidate. *)
    let pattern = Atom.make "r" [ const 0; var "Y"; const 1 ] in
    let bucket p i = List.length (List.filter (fun a -> Term.equal (arg a p) (const i)) facts) in
    check cint (msg "two-bound candidate_count") (min (bucket 0 0) (bucket 2 1))
      (Database.candidate_count d pattern);
    let cands = Database.candidates d pattern in
    List.iter (fun a -> check cbool (msg "candidate is live") true (Hashtbl.mem reference a)) cands;
    List.iter
      (fun a ->
        if Term.equal (arg a 0) (const 0) && Term.equal (arg a 2) (const 1) then
          check cbool (msg "match is a candidate") true (List.memq a cands))
      facts;
    (* The WCOJ probes. *)
    let all = Atom.make "r" [ var "X"; var "Y"; var "Z" ] in
    for p = 0 to 2 do
      let v = [| "X"; "Y"; "Z" |].(p) in
      let expected = live_values p facts in
      (match Database.distinct_ids_under d Subst.empty all ~var:v with
      | Some got -> check (Alcotest.list cint) (msg "distinct_ids_under") (ids expected) (Array.to_list got)
      | None -> Alcotest.fail (msg "distinct_ids_under declined an unbound pattern"));
      let resolved = ref [] in
      Database.iter_values_of_ids d all ~var:v
        (Array.of_list (ids (Array.to_list (Array.mapi (fun i _ -> const i) consts))))
        (fun t -> resolved := t :: !resolved);
      check (Alcotest.list cint) (msg "iter_values_of_ids") (ids expected) (ids !resolved);
      let scanned = ref [] in
      Database.iter_var_values_under d Subst.empty all ~var:v (fun t -> scanned := t :: !scanned);
      check cint (msg "iter_var_values_under: no duplicates") (List.length expected) (List.length !scanned);
      check (Alcotest.list cint) (msg "iter_var_values_under") (ids expected) (ids !scanned)
    done;
    (* Bound driver and repeated-variable scan branches. *)
    let probe pattern var keep =
      let got = ref [] in
      Database.iter_var_values_under d Subst.empty pattern ~var (fun t -> got := t :: !got);
      check (Alcotest.list cint) (msg ("iter_var_values_under " ^ Atom.to_string pattern))
        (ids (live_values 1 (List.filter keep facts))) (ids !got)
    in
    probe (Atom.make "r" [ const 2; var "Y"; var "Z" ]) "Y" (fun a -> Term.equal (arg a 0) (const 2));
    probe (Atom.make "r" [ var "Y"; var "Y"; var "Z" ]) "Y" (fun a -> Term.equal (arg a 0) (arg a 1))
  in
  (* Epoch checkpoints for rollback, newest first. *)
  let checkpoints = ref [ (Database.epoch d, live ()) ] in
  for step = 1 to 2000 do
    let grow = step / 50 mod 2 = 0 in
    let a = random_fact () in
    let add = Random.State.int rng 10 < if grow then 8 else 2 in
    if add then begin
      check cbool "add agrees" (not (Hashtbl.mem reference a)) (Database.add d a);
      Hashtbl.replace reference a ()
    end
    else begin
      check cbool "remove agrees" (Hashtbl.mem reference a) (Database.remove d a);
      Hashtbl.remove reference a
    end;
    if step mod 37 = 0 then checkpoints := (Database.epoch d, live ()) :: !checkpoints;
    if step mod 250 = 0 then begin
      (* Roll back to a random checkpoint; later ones become void. *)
      let keep = List.filteri (fun i _ -> i >= Random.State.int rng (List.length !checkpoints)) !checkpoints in
      let e, facts = List.hd keep in
      Database.rollback d e;
      Hashtbl.reset reference;
      List.iter (fun a -> Hashtbl.replace reference a ()) facts;
      checkpoints := keep
    end;
    check_views step
  done

let test_database_epoch_rollback () =
  let d = Helpers.db "r(a, b). s(a)." in
  Database.enable_journal d;
  let e0 = Database.epoch d in
  ignore (Database.add d (Helpers.atom "r(b, c)"));
  ignore (Database.remove d (Helpers.atom "s(a)"));
  let e1 = Database.epoch d in
  ignore (Database.add d (Helpers.atom "s(b)"));
  Database.rollback d e1;
  check cbool "rollback to e1: s(b) undone" false (Database.mem d (Helpers.atom "s(b)"));
  check cbool "rollback to e1: r(b, c) kept" true (Database.mem d (Helpers.atom "r(b, c)"));
  Database.rollback d e0;
  check cbool "rollback to e0: r(b, c) undone" false (Database.mem d (Helpers.atom "r(b, c)"));
  check cbool "rollback to e0: s(a) restored" true (Database.mem d (Helpers.atom "s(a)"));
  check cint "rollback to e0: original facts" 2 (Database.cardinal d);
  (* a no-op mutation does not advance the epoch *)
  ignore (Database.add d (Helpers.atom "s(a)"));
  check cbool "duplicate add keeps epoch" true (Database.epoch d = e0);
  match Database.rollback d e1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "rollback into the future accepted"

let test_database_non_ground_rejected () =
  let d = Database.create () in
  match Database.add d (Atom.make "r" [ Term.Var "x" ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-ground atom accepted"

(* --- homomorphisms -------------------------------------------------- *)

let test_homomorphism_all () =
  let d = Helpers.db "e(a, b). e(b, c). e(c, a)." in
  let body = [ Helpers.atom "e(X, Y)"; Helpers.atom "e(Y, Z)" ] in
  check cint "paths of length 2" 3 (List.length (Homomorphism.all body d));
  let triangle = [ Helpers.atom "e(X, Y)"; Helpers.atom "e(Y, Z)"; Helpers.atom "e(Z, X)" ] in
  check cint "triangles" 3 (List.length (Homomorphism.all triangle d))

let test_homomorphism_constants () =
  let d = Helpers.db "e(a, b). e(b, c)." in
  let body = [ Helpers.atom "e(a, X)" ] in
  check cint "constant anchored" 1 (List.length (Homomorphism.all body d))

let test_homomorphism_empty_body () =
  let d = Helpers.db "e(a, b)." in
  check cint "empty body has one hom" 1 (List.length (Homomorphism.all [] d))

let test_homomorphism_negative () =
  let d = Helpers.db "e(a, b). e(b, c). mark(b)." in
  let lits =
    [ Literal.Pos (Helpers.atom "e(X, Y)"); Literal.Neg (Helpers.atom "mark(X)") ]
  in
  let homs = Homomorphism.all_literals lits d in
  check cint "negation filters" 1 (List.length homs)

let suite =
  [
    Alcotest.test_case "term compare" `Quick test_term_compare;
    Alcotest.test_case "term predicates" `Quick test_term_predicates;
    Alcotest.test_case "term printing" `Quick test_term_pp;
    Alcotest.test_case "atom basics" `Quick test_atom_basics;
    Alcotest.test_case "atom annotation" `Quick test_atom_annotation;
    Alcotest.test_case "atom map_terms" `Quick test_atom_map_terms;
    Alcotest.test_case "subst apply" `Quick test_subst_apply;
    Alcotest.test_case "subst compose" `Quick test_subst_compose;
    Alcotest.test_case "subst match_atom" `Quick test_subst_match_atom;
    Alcotest.test_case "rule variable sets" `Quick test_rule_vars;
    Alcotest.test_case "rule safety" `Quick test_rule_safety;
    Alcotest.test_case "rule negation safety" `Quick test_rule_neg_safety;
    Alcotest.test_case "rule apply" `Quick test_rule_apply;
    Alcotest.test_case "rule canonicalize" `Quick test_rule_canonicalize;
    Alcotest.test_case "rule rename apart" `Quick test_rule_rename_apart;
    Alcotest.test_case "theory signature" `Quick test_theory_signature;
    Alcotest.test_case "theory edb split" `Quick test_theory_edb;
    Alcotest.test_case "theory dedup" `Quick test_theory_dedup;
    Alcotest.test_case "parser round trips" `Quick test_parser_roundtrip;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "parser database" `Quick test_parser_database;
    Alcotest.test_case "parser quoted constants" `Quick test_parser_quoted;
    Alcotest.test_case "parser datalog style" `Quick test_parser_datalog_style;
    Alcotest.test_case "database operations" `Quick test_database_ops;
    Alcotest.test_case "database candidates" `Quick test_database_candidates;
    Alcotest.test_case "database ACDom" `Quick test_database_acdom;
    Alcotest.test_case "database removal" `Quick test_database_remove;
    Alcotest.test_case "database add/remove interleaved" `Quick test_database_add_remove_interleaved;
    Alcotest.test_case "database tombstones vs reference" `Quick test_database_tombstones;
    Alcotest.test_case "database epoch rollback" `Quick test_database_epoch_rollback;
    Alcotest.test_case "database rejects non-ground" `Quick test_database_non_ground_rejected;
    Alcotest.test_case "homomorphism enumeration" `Quick test_homomorphism_all;
    Alcotest.test_case "homomorphism with constants" `Quick test_homomorphism_constants;
    Alcotest.test_case "homomorphism empty body" `Quick test_homomorphism_empty_body;
    Alcotest.test_case "homomorphism negative literals" `Quick test_homomorphism_negative;
  ]
