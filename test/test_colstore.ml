(** Property tests for the columnar storage layer (ISSUE 6, satellite
    3): the packed sorted-run primitives of {!Guarded_core.Intrun}
    against naive list references, and the columnar {!Database} under
    add/remove interleavings against a set reference. The generators
    draw values from tiny domains so that empty runs, duplicated value
    halves and single-element boundaries all occur routinely. *)

open Guarded_core

(* ------------------------------------------------------------------ *)
(* Intrun primitives vs list references                                *)

(* Tiny domains: collisions on the value half are the norm, not the
   exception. *)
let gen_pair = QCheck.Gen.(pair (int_bound 7) (int_bound 7))
let gen_pairs = QCheck.Gen.(list_size (int_bound 12) gen_pair)

let arbitrary_pairs =
  QCheck.make ~print:(fun ps -> Fmt.str "%a" Fmt.(Dump.list (Dump.pair int int)) ps) gen_pairs

let arbitrary_two_pairs =
  QCheck.make
    ~print:(fun (a, b) ->
      Fmt.str "%a / %a" Fmt.(Dump.list (Dump.pair int int)) a Fmt.(Dump.list (Dump.pair int int)) b)
    QCheck.Gen.(pair gen_pairs gen_pairs)

let run_of_pairs ps =
  let a = Array.of_list (List.map (fun (v, r) -> Intrun.pack v r) ps) in
  Intrun.sort a;
  a

let unpack a = Array.to_list (Array.map (fun e -> (Intrun.value e, Intrun.row e)) a)

let prop_pack_roundtrip_and_order =
  QCheck.Test.make ~count:500 ~name:"pack: lossless and lexicographic"
    (QCheck.pair (QCheck.make gen_pair) (QCheck.make gen_pair))
    (fun ((v1, r1), (v2, r2)) ->
      let e1 = Intrun.pack v1 r1 and e2 = Intrun.pack v2 r2 in
      Intrun.value e1 = v1 && Intrun.row e1 = r1
      && Stdlib.compare e1 e2 = Stdlib.compare (v1, r1) (v2, r2))

let prop_sort_matches_list_sort =
  QCheck.Test.make ~count:500 ~name:"run sort = list sort of (value, row) pairs" arbitrary_pairs
    (fun ps -> unpack (run_of_pairs ps) = List.sort Stdlib.compare ps)

let prop_merge_matches_sorted_append =
  QCheck.Test.make ~count:500 ~name:"run merge = sorted append" arbitrary_two_pairs
    (fun (a, b) ->
      unpack (Intrun.merge (run_of_pairs a) (run_of_pairs b))
      = List.sort Stdlib.compare (a @ b))

(* [lower] and [gallop] agree with the first-index-≥-key scan; [gallop]
   additionally from every admissible starting point. *)
let prop_lower_gallop_match_scan =
  QCheck.Test.make ~count:500 ~name:"lower/gallop = linear scan for first entry >= key"
    (QCheck.pair arbitrary_pairs (QCheck.make gen_pair))
    (fun (ps, (v, r)) ->
      let a = run_of_pairs ps in
      let key = Intrun.pack v r in
      let n = Array.length a in
      let scan lo =
        let i = ref lo in
        while !i < n && a.(!i) < key do incr i done;
        !i
      in
      Intrun.lower a key = scan 0
      && List.for_all (fun lo -> Intrun.gallop a key ~lo = scan lo)
           (List.init (n + 1) Fun.id))

let prop_seg_count_match_filter =
  QCheck.Test.make ~count:500 ~name:"seg/count_value = filter on the value half"
    (QCheck.pair arbitrary_pairs (QCheck.make QCheck.Gen.(int_bound 8)))
    (fun (ps, v) ->
      let a = run_of_pairs ps in
      let lo, hi = Intrun.seg a v in
      let expected = List.filter (fun (v', _) -> v' = v) (List.sort Stdlib.compare ps) in
      lo <= hi && hi <= Array.length a
      && unpack (Array.sub a lo (hi - lo)) = expected
      && Intrun.count_value a v = List.length expected)

let prop_inter_matches_set_intersection =
  QCheck.Test.make ~count:500 ~name:"inter = set intersection of sorted distinct arrays"
    (QCheck.pair
       (QCheck.make QCheck.Gen.(list_size (int_bound 12) (int_bound 15)))
       (QCheck.make QCheck.Gen.(list_size (int_bound 12) (int_bound 15))))
    (fun (xs, ys) ->
      let distinct l = Array.of_list (List.sort_uniq Stdlib.compare l) in
      let a = distinct xs and b = distinct ys in
      Array.to_list (Intrun.inter a b)
      = List.filter (fun x -> Array.exists (( = ) x) b) (Array.to_list a))

(* 0-4 runs, the surviving rows picked by a random bitmask over the
   row domain; covers the single-run, nothing-dropped shortcut. *)
let prop_merge_filter_matches_reference =
  QCheck.Test.make ~count:500 ~name:"merge_filter = sorted filter of the concatenation"
    (QCheck.make
       ~print:(fun (rs, mask) ->
         Fmt.str "%a / mask %d" Fmt.(Dump.list (Dump.list (Dump.pair int int))) rs mask)
       QCheck.Gen.(pair (list_size (int_bound 4) gen_pairs) (int_bound 255)))
    (fun (pss, mask) ->
      let keep row = mask land (1 lsl row) <> 0 in
      unpack (Intrun.merge_filter (List.map run_of_pairs pss) keep)
      = List.sort Stdlib.compare (List.filter (fun (_, r) -> keep r) (List.concat pss)))

let prop_iter_distinct_values_matches_reference =
  QCheck.Test.make ~count:500 ~name:"iter_distinct_values = min-row witness per distinct value"
    (QCheck.make
       ~print:(fun rs -> Fmt.str "%a" Fmt.(Dump.list (Dump.list (Dump.pair int int))) rs)
       QCheck.Gen.(list_size (int_bound 4) gen_pairs))
    (fun pss ->
      let runs = List.map run_of_pairs pss in
      let got = ref [] in
      Intrun.iter_distinct_values runs (fun v r -> got := (v, r) :: !got);
      let all = List.concat pss in
      let expected =
        List.sort_uniq Stdlib.compare (List.map fst all)
        |> List.map (fun v ->
               (v, List.fold_left min max_int (List.filter_map
                      (fun (v', r) -> if v' = v then Some r else None) all)))
      in
      List.rev !got = expected)

(* ------------------------------------------------------------------ *)
(* Columnar Database vs a fact-set reference under interleavings       *)

(* Random add/remove scripts over a tiny atom space: a binary relation
   over four constants, so the same fact is added, removed and re-added
   across a script, exercising tombstones, run purges, compaction and
   lazy re-flushes. *)
let const i = Term.Const (Fmt.str "c%d" i)
let fact u v = Atom.make "r" [ const u; const v ]

let gen_op = QCheck.Gen.(triple bool (int_bound 3) (int_bound 3))

let arbitrary_script =
  QCheck.make
    ~print:(fun ops ->
      Fmt.str "%a"
        Fmt.(Dump.list (fun ppf (add, u, v) -> Fmt.pf ppf "%s r(c%d,c%d)"
               (if add then "+" else "-") u v))
        ops)
    QCheck.Gen.(list_size (int_bound 40) gen_op)

(* Interleave lookups with the mutations: after every op the database
   must agree with the reference set, and the positional probes must be
   exact on fully bound patterns and complete on partially bound ones. *)
let prop_database_matches_set_reference =
  QCheck.Test.make ~count:200 ~name:"columnar add/remove interleaving = set reference"
    arbitrary_script (fun ops ->
      let db = Database.create () in
      let reference = ref [] in
      List.for_all
        (fun (add, u, v) ->
          let a = fact u v in
          if add then begin
            let fresh = Database.add db a in
            let expected = not (List.mem a !reference) in
            if fresh then reference := a :: !reference;
            fresh = expected
          end
          else begin
            let removed = Database.remove db a in
            let expected = List.mem a !reference in
            reference := List.filter (fun b -> not (Atom.equal b a)) !reference;
            removed = expected
          end
          && Database.cardinal db = List.length !reference
          && Database.equal db (Database.of_atoms !reference))
        ops)

(* Positional candidate selection after an interleaving: candidates are
   a superset of the true matches, counts upper-bound them, and
   [exists_under] is exact. *)
let prop_database_probes_after_interleaving =
  QCheck.Test.make ~count:200 ~name:"positional probes exact after add/remove interleaving"
    arbitrary_script (fun ops ->
      let db = Database.create () in
      let reference = ref [] in
      List.iter
        (fun (add, u, v) ->
          let a = fact u v in
          if add then begin
            if Database.add db a then reference := a :: !reference
          end
          else if Database.remove db a then
            reference := List.filter (fun b -> not (Atom.equal b a)) !reference)
        ops;
      let patterns =
        (* Every combination of bound/free positions over the domain. *)
        List.concat_map
          (fun u ->
            List.concat_map
              (fun v ->
                [
                  Atom.make "r" [ const u; const v ];
                  Atom.make "r" [ const u; Term.Var "Y" ];
                  Atom.make "r" [ Term.Var "X"; const v ];
                  Atom.make "r" [ Term.Var "X"; Term.Var "Y" ];
                ])
              [ 0; 1; 2; 3 ])
          [ 0; 1; 2; 3 ]
      in
      List.for_all
        (fun p ->
          let matches =
            List.filter (fun b -> Subst.match_atom Subst.empty p b <> None) !reference
          in
          let cands = Database.candidates db p in
          Database.candidate_count db p >= List.length matches
          && List.length cands >= List.length matches
          && List.for_all (fun m -> List.exists (Atom.equal m) cands) matches
          && Database.exists_under db Subst.empty p = (matches <> []))
        patterns)

(* Distinct-value enumeration (the WCOJ probe) after an interleaving:
   complete and duplicate-free per the reference. *)
let prop_database_var_values_after_interleaving =
  QCheck.Test.make ~count:200 ~name:"iter_var_values_under = distinct reference values"
    arbitrary_script (fun ops ->
      let db = Database.create () in
      let reference = ref [] in
      List.iter
        (fun (add, u, v) ->
          let a = fact u v in
          if add then begin
            if Database.add db a then reference := a :: !reference
          end
          else if Database.remove db a then
            reference := List.filter (fun b -> not (Atom.equal b a)) !reference)
        ops;
      List.for_all
        (fun (p, var, select) ->
          let got = ref [] in
          Database.iter_var_values_under db Subst.empty p ~var (fun t -> got := t :: !got);
          List.sort Stdlib.compare !got
          = List.sort_uniq Stdlib.compare (List.filter_map select !reference))
        [
          (Atom.make "r" [ Term.Var "X"; Term.Var "Y" ], "X",
           fun b -> Some (List.nth (Atom.args b) 0));
          (Atom.make "r" [ Term.Var "X"; Term.Var "Y" ], "Y",
           fun b -> Some (List.nth (Atom.args b) 1));
          (Atom.make "r" [ const 0; Term.Var "Y" ], "Y",
           fun b -> if List.nth (Atom.args b) 0 = const 0 then Some (List.nth (Atom.args b) 1)
                    else None);
          (Atom.make "r" [ Term.Var "X"; Term.Var "X" ], "X",
           fun b -> match Atom.args b with
                    | [ x; y ] when x = y -> Some x
                    | _ -> None);
        ])

(* Storage metrics stay consistent with the fact set: row counts match
   cardinality per relation and bytes/runs are nonnegative. *)
let prop_storage_stats_consistent =
  QCheck.Test.make ~count:200 ~name:"storage_stats rows = relation cardinality"
    arbitrary_script (fun ops ->
      let db = Database.create () in
      List.iter
        (fun (add, u, v) ->
          if add then ignore (Database.add db (fact u v))
          else ignore (Database.remove db (fact u v)))
        ops;
      List.for_all
        (fun (st : Database.rel_stats) ->
          st.rs_rows = Database.rel_cardinal db st.rs_rel
          && st.rs_runs >= 0 && st.rs_bytes >= 0)
        (Database.storage_stats db)
      && List.fold_left
           (fun acc (st : Database.rel_stats) -> acc + st.rs_rows)
           0 (Database.storage_stats db)
         = Database.cardinal db)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pack_roundtrip_and_order;
      prop_sort_matches_list_sort;
      prop_merge_matches_sorted_append;
      prop_lower_gallop_match_scan;
      prop_seg_count_match_filter;
      prop_inter_matches_set_intersection;
      prop_iter_distinct_values_matches_reference;
      prop_merge_filter_matches_reference;
      prop_database_matches_set_reference;
      prop_database_probes_after_interleaving;
      prop_database_var_values_after_interleaving;
      prop_storage_stats_consistent;
    ]
