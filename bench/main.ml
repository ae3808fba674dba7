(** Benchmark and reproduction harness.

    One section per table/figure of the paper (see DESIGN.md's
    per-experiment index and EXPERIMENTS.md for the recorded outcomes):
    each section regenerates its artifact — inclusion relations,
    chase statistics, translation sizes, capture results — and prints the
    rows. A final Bechamel pass micro-times one representative operation
    per experiment.

    Usage: dune exec bench/main.exe [-- [--json FILE] [--domains SPEC] SECTION...]
    Sections: fig1 fig2 fig3 thm1 thm2 thm3 sec7 thm4 thm5 blowup ablation
    sat incr serve ingest demand analyze joins micro

    With [--json FILE] the run additionally records, per section, the
    wall-clock seconds and every printed table with its timing columns
    stripped (so two runs of the same tree produce identical result
    rows), and writes them as JSON. The committed BENCH_N.json files
    are such recordings; EXPERIMENTS.md describes the workflow.

    With [--domains SPEC] (comma-separated counts, e.g. [--domains 1,4])
    the requested sections run once per count, each against a
    {!Guarded_par.Pool} of that many domains wired into the fixpoint
    sections (fig2, thm1, thm2, thm5, sat, incr, micro's chase). Each count
    runs in a fresh child process (the driver re-executes itself per
    leg and splices the child recordings) so hash-cons-table and heap
    growth from one leg cannot tax the next. The first count keeps the
    plain section ids — its result rows stay diffable against
    sequential baselines, since the recorded rows are null-free — and
    later counts record under [id@dN]. Without the flag every section
    runs the unchanged sequential schedule. *)

open Guarded_core
module Engine = Guarded_chase.Engine
module Tree = Guarded_chase.Tree
module Seminaive = Guarded_datalog.Seminaive
module Saturate = Guarded_translate.Saturate
module Rewrite_fg = Guarded_translate.Rewrite_fg
module Subsumption = Guarded_translate.Subsumption
module Annotate = Guarded_translate.Annotate
module Pipeline = Guarded_translate.Pipeline
module Capture = Guarded_capture
module Pool = Guarded_par.Pool

(* The pool the fixpoint sections evaluate against; [None] (the
   default) keeps every section on the sequential schedule. Set by the
   [--domains] sweep in the driver. *)
let current_pool : Pool.t option ref = ref None
let current_domains : int option ref = ref None

(* ------------------------------------------------------------------ *)
(* Small table printer                                                 *)

let section id title =
  Fmt.pr "@.=== %s — %s ===@." (String.uppercase_ascii id) title

(* ------------------------------------------------------------------ *)
(* JSON recording (--json FILE)                                        *)

type json_section = {
  js_id : string;
  js_domains : int option;  (** pool size; [None] = sequential schedule *)
  mutable js_seconds : float;
  mutable js_alloc_mb : float;  (** bytes allocated during the section, MB *)
  mutable js_heap_mb : float;  (** top_heap_words after the section, MB *)
  mutable js_tables : (string list * string list list) list;  (** reversed *)
}

let json_enabled = ref false
let json_sections : json_section list ref = ref []
let json_current : json_section option ref = ref None

let json_begin_section id =
  if !json_enabled then begin
    let js =
      {
        js_id = id;
        js_domains = !current_domains;
        js_seconds = 0.;
        js_alloc_mb = 0.;
        js_heap_mb = 0.;
        js_tables = [];
      }
    in
    json_sections := js :: !json_sections;
    json_current := Some js
  end

(* Timing columns are stripped from the recorded rows: everything else a
   section prints is deterministic, so baselines can be diffed on result
   rows while the [seconds] field carries the perf trajectory. *)
let is_timing_column h =
  let h = String.lowercase_ascii h in
  let contains sub =
    let n = String.length sub and m = String.length h in
    let rec go i = i + n <= m && (String.sub h i n = sub || go (i + 1)) in
    go 0
  in
  contains "time" || contains "\xc2\xb5s" (* µs *)

(* A printed duration, e.g. "222.2ms": some tables label their timing
   columns by what is timed ("pipeline", "chase") rather than "time". *)
let is_timing_cell s =
  String.length s > 2
  && (match s.[0] with '0' .. '9' -> true | _ -> false)
  && String.sub s (String.length s - 2) 2 = "ms"

let json_record_table header rows =
  match !json_current with
  | None -> ()
  | Some js ->
    let keep =
      List.mapi
        (fun i h ->
          (not (is_timing_column h))
          && not (rows <> [] && List.for_all (fun row -> is_timing_cell (List.nth row i)) rows))
        header
    in
    let filter row = List.filteri (fun i _ -> List.nth keep i) row in
    js.js_tables <- (filter header, List.map filter rows) :: js.js_tables

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_write file =
  let oc = open_out file in
  let pr fmt = Printf.fprintf oc fmt in
  let str_list l = String.concat ", " (List.map (fun s -> "\"" ^ json_escape s ^ "\"") l) in
  pr "{\n  \"generated_by\": \"bench/main.exe --json\",\n  \"sections\": [";
  List.iteri
    (fun i js ->
      if i > 0 then pr ",";
      pr "\n    {\n      \"id\": \"%s\",\n" (json_escape js.js_id);
      (match js.js_domains with
      | Some d -> pr "      \"domains\": %d,\n" d
      | None -> ());
      pr "      \"seconds\": %.6f,\n" js.js_seconds;
      pr "      \"alloc_mb\": %.3f,\n" js.js_alloc_mb;
      pr "      \"heap_mb\": %.3f,\n" js.js_heap_mb;
      pr "      \"tables\": [";
      List.iteri
        (fun j (header, rows) ->
          if j > 0 then pr ",";
          pr "\n        {\n          \"header\": [%s],\n          \"rows\": [" (str_list header);
          List.iteri
            (fun k row ->
              if k > 0 then pr ",";
              pr "\n            [%s]" (str_list row))
            rows;
          pr "\n          ]\n        }")
        (List.rev js.js_tables);
      pr "\n      ]\n    }")
    (List.rev !json_sections);
  pr "\n  ]\n}\n";
  close_out oc

let table header rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    Fmt.pr "| %s |@."
      (String.concat " | " (List.map2 (fun w c -> c ^ String.make (w - String.length c) ' ') widths row))
  in
  print_row header;
  Fmt.pr "|%s|@."
    (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row rows;
  json_record_table header rows

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let ms t = Fmt.str "%.1fms" (t *. 1000.)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* The running example scaled to a chain of [n] publications citing the
   next one, sharing an author pairwise, with a scientific seed topic. *)
let publications_db n =
  let db = Database.create () in
  let add text = ignore (Database.add db (Parser.atom_of_string text)) in
  for i = 1 to n do
    add (Fmt.str "publication(p%d)" i);
    add (Fmt.str "hasAuthor(p%d, auth%d)" i i);
    if i < n then begin
      add (Fmt.str "citedIn(p%d, p%d)" i (i + 1));
      add (Fmt.str "hasAuthor(p%d, auth%d)" (i + 1) i)
    end
  done;
  add (Fmt.str "hasTopic(p%d, seed)" n);
  add "scientific(seed)";
  db

let publications_theory () = Parser.theory_of_string Workloads.publications_text
let small_fg_theory () = Parser.theory_of_string Workloads.small_fg_text

(* A guarded "genealogy" family with a growing Datalog layer. *)
let guarded_family width =
  let rules =
    [
      "person(X) -> exists Y. parent(X, Y).";
      "parent(X, Y) -> person(Y).";
      "parent(X, Y) -> ancestor(X, Y).";
    ]
    @ List.init width (fun i ->
          Fmt.str "ancestor(X, Y), tag%d(X) -> tagged%d(Y)." i i)
    @ List.init width (fun i -> Fmt.str "tagged%d(X) -> anyTagged(X)." i)
  in
  Parser.theory_of_string (String.concat "\n" rules)

(* The frontier-guarded family of Thm 1's sweep: a non-guarded Datalog
   rule with [m] body atoms over existential values. *)
let fg_family m =
  let body =
    String.concat ", " (List.init m (fun i -> Fmt.str "hasTopic(X%d, Z)" i))
  in
  Parser.theory_of_string
    (Fmt.str
       {|
     publication(X) -> exists K1, K2. keywords(X, K1, K2).
     keywords(X, K1, K2) -> hasTopic(X, K1).
     %s -> shared(Z).
     shared(Z), hasTopic(X0, Z), hasAuthor(X0, A) -> q(A).
   |}
       body)

let fg_family_db () =
  Parser.database_of_string
    {|
  publication(p1). publication(p2).
  hasAuthor(p1, a1). hasAuthor(p2, a2).
  hasTopic(p1, t). hasTopic(p2, t).
|}

(* ------------------------------------------------------------------ *)
(* FIG1: the inclusion diagram, regenerated                            *)

let fig1 () =
  section "fig1" "Figure 1: semantic relations between the languages";
  let theories =
    [
      ("transitive closure", Parser.theory_of_string "e(X, Y) -> tc(X, Y). tc(X, Y), e(Y, Z) -> tc(X, Z).");
      ("Example 7 (guarded)", Parser.theory_of_string Workloads.example7_text);
      ("running example Σp", publications_theory ());
      ("small FG ontology", small_fg_theory ());
      ("WFG witness", Parser.theory_of_string Workloads.wfg_text);
      ("WG witness", Parser.theory_of_string Workloads.wg_text);
    ]
  in
  table
    [ "theory"; "classified"; "G"; "FG"; "NG"; "NFG"; "WG"; "WFG" ]
    (List.map
       (fun (name, sigma) ->
         let b f = if f sigma then "yes" else "-" in
         [
           name;
           Classify.language_name (Classify.classify sigma);
           b Classify.is_guarded;
           b Classify.is_frontier_guarded;
           b Classify.is_nearly_guarded;
           b Classify.is_nearly_frontier_guarded;
           b Classify.is_weakly_guarded;
           b Classify.is_weakly_frontier_guarded;
         ])
       theories);
  (* The translation edges of the figure, executed: *)
  Fmt.pr "@.edges (executed translations):@.";
  let norm = Normalize.normalize (small_fg_theory ()) in
  let ng, _ = Rewrite_fg.rew_frontier_guarded ~max_rules:50_000 norm in
  Fmt.pr "  FG -> NG   (Thm 1): %d -> %d rules, nearly guarded: %b@." (Theory.size norm)
    (Theory.size ng) (Classify.is_nearly_guarded ng);
  let dat, _ = Saturate.dat_nearly_guarded ~max_rules:50_000 ng in
  Fmt.pr "  NG -> DLog (Thm 3 + Prop 6): %d -> %d rules, datalog: %b@." (Theory.size ng)
    (Theory.size dat) (Theory.is_datalog dat);
  let wfg = Normalize.normalize (Parser.theory_of_string Workloads.wfg_text) in
  let wg = Annotate.rew_weakly_frontier_guarded ~max_rules:50_000 wfg in
  Fmt.pr "  WFG -> WG  (Thm 2): %d -> %d rules, weakly guarded: %b@." (Theory.size wfg)
    (Theory.size wg.Annotate.theory)
    (Classify.is_weakly_guarded wg.Annotate.theory);
  Fmt.pr "@.non-edges (separations):@.";
  Fmt.pr "  Datalog not in FG: the tc rule is not frontier-guarded: %b@."
    (not
       (Classify.is_frontier_guarded_rule
          (Parser.rule_of_string "tc(X, Y), e(Y, Z) -> tc(X, Z).")));
  (match Pipeline.to_datalog (Parser.theory_of_string Workloads.wg_text) with
  | exception Pipeline.Not_datalog_expressible l ->
    Fmt.pr "  WG not in Datalog: pipeline refuses (%s, ExpTime-complete data complexity)@."
      (Classify.language_name l)
  | _ -> Fmt.pr "  WG not in Datalog: UNEXPECTEDLY TRANSLATED@.")

(* ------------------------------------------------------------------ *)
(* FIG2: the running example's chase, scaled                           *)

let fig2 () =
  section "fig2" "Figure 2: chase of the publication example (scaled)";
  let sigma = publications_theory () in
  let norm = Normalize.normalize sigma in
  let rows =
    List.map
      (fun n ->
        let db = publications_db n in
        let (res : Engine.result), t =
          time (fun () -> Engine.run ?pool:!current_pool norm db)
        in
        let tree = Tree.build norm db res in
        let ok = match Tree.verify tree norm db with Ok () -> "ok" | Error _ -> "VIOLATED" in
        let answers, _ = Engine.answers ?pool:!current_pool norm db ~query:"q" in
        [
          string_of_int n;
          string_of_int (Database.cardinal db);
          string_of_int res.Engine.derivations;
          string_of_int (Database.cardinal res.Engine.db);
          string_of_int (List.length answers);
          string_of_int (Tree.node_count tree);
          string_of_int (Tree.width tree);
          ok;
          ms t;
        ])
      [ 2; 4; 8; 16; 32; 64; 128; 256 ]
  in
  table
    [ "n pubs"; "|D|"; "derivations"; "|chase|"; "answers"; "tree nodes"; "width"; "P1-P3"; "time" ]
    rows

(* ------------------------------------------------------------------ *)
(* FIG3: the inference rules of Figure 3 on Example 7                  *)

let fig3 () =
  section "fig3" "Figure 3 / Example 7: the saturation calculus";
  let sigma = Parser.theory_of_string Workloads.example7_text in
  let (xi, stats), t = time (fun () -> Saturate.closure ~max_rules:10_000 sigma) in
  Fmt.pr "Ξ(Σ): %d rules (%d Datalog) from %d input rules (%s)@." stats.Saturate.closure_rules
    stats.Saturate.datalog_rules stats.Saturate.input_rules (ms t);
  let sigma12 = Rule.canonicalize (Parser.rule_of_string "a(X), c(X) -> d(X).") in
  let derived =
    List.exists
      (fun r -> Rule.to_string (Rule.canonicalize r) = Rule.to_string sigma12)
      (Theory.rules xi)
  in
  Fmt.pr "σ12 = A(x) ∧ C(x) → D(x) derived: %b@." derived;
  let dat, _ = Saturate.dat_via_closure ~max_rules:10_000 sigma in
  let db = Parser.database_of_string "a(k). c(k)." in
  let answers = Seminaive.answers dat db ~query:"d" in
  Fmt.pr "dat(Σ) alone answers D(c) over {A(c), C(c)}: %b@."
    (answers = [ [ Term.Const "k" ] ]);
  let dat2, st2 = Saturate.dat sigma in
  Fmt.pr "consequence-driven dat: %d rules, %d objects, agrees: %b@." (Theory.size dat2)
    st2.Saturate.resolutions
    (Seminaive.answers dat2 db ~query:"d" = answers)

(* ------------------------------------------------------------------ *)
(* THM1: FG -> NG translation sweep                                    *)

let thm1 () =
  section "thm1" "Theorem 1: frontier-guarded -> nearly guarded";
  let rows =
    List.map
      (fun m ->
        let sigma = Normalize.normalize (fg_family m) in
        let (ng, stats), t = time (fun () -> Rewrite_fg.rew_frontier_guarded ~max_rules:100_000 sigma) in
        let db = fg_family_db () in
        let expected, _ = Engine.answers sigma db ~query:"q" in
        let db' = Database.copy db in
        Database.materialize_acdom db';
        let got, _ =
          Engine.answers
            ~limits:{ max_derivations = 300_000; max_depth = None }
            ?pool:!current_pool ng db' ~query:"q"
        in
        [
          string_of_int m;
          string_of_int (Theory.size sigma);
          string_of_int stats.Guarded_translate.Expansion.output_rules;
          string_of_int stats.Guarded_translate.Expansion.aux_relations;
          (if Classify.is_nearly_guarded ng then "yes" else "NO");
          (if expected = got then "agree" else "MISMATCH");
          ms t;
        ])
      [ 1; 2; 3; 4 ]
  in
  table
    [ "body atoms"; "|Σ|"; "|rew(Σ)|"; "aux rels"; "nearly guarded"; "answers"; "time" ]
    rows

(* ------------------------------------------------------------------ *)
(* THM2: WFG -> WG translation                                         *)

let thm2 () =
  section "thm2" "Theorem 2: weakly frontier-guarded -> weakly guarded";
  let cases =
    [ ("WFG witness", Workloads.wfg_text, "item(i1). item(i2). label(l1).", "tagged") ]
  in
  let rows =
    List.map
      (fun (name, text, db_text, query) ->
        let sigma = Normalize.normalize (Parser.theory_of_string text) in
        let r, t = time (fun () -> Annotate.rew_weakly_frontier_guarded ~max_rules:50_000 sigma) in
        let db = Parser.database_of_string db_text in
        let expected, _ = Engine.answers sigma db ~query in
        let db' = Database.copy db in
        Database.materialize_acdom db';
        let got, _ =
          Engine.answers
            ~limits:{ max_derivations = 100_000; max_depth = None }
            ?pool:!current_pool r.Annotate.theory db' ~query
        in
        [
          name;
          string_of_int (Theory.size sigma);
          string_of_int (Theory.size r.Annotate.theory);
          (if Classify.is_weakly_guarded r.Annotate.theory then "yes" else "NO");
          (if expected = got then "agree" else "MISMATCH");
          ms t;
        ])
      cases
  in
  table [ "theory"; "|Σ|"; "|rew(Σ)|"; "weakly guarded"; "answers"; "time" ] rows

(* ------------------------------------------------------------------ *)
(* THM3: guarded -> Datalog sweep                                      *)

let thm3 () =
  section "thm3" "Theorem 3 / Prop 6: (nearly) guarded -> Datalog";
  let db =
    Parser.database_of_string
      "person(adam). tag0(adam). tag1(adam). tag2(adam). tag3(adam)."
  in
  let rows =
    List.map
      (fun width ->
        let sigma = guarded_family width in
        let (dat, stats), t = time (fun () -> Saturate.dat ~max_rules:100_000 sigma) in
        let expected, outcome =
          Engine.answers ~limits:{ max_derivations = 2_000; max_depth = Some 4 } sigma db
            ~query:"anyTagged"
        in
        let got = Seminaive.answers dat db ~query:"anyTagged" in
        let agree =
          match outcome with
          | Engine.Saturated -> if expected = got then "agree" else "MISMATCH"
          | Engine.Bounded ->
            if List.for_all (fun t' -> List.mem t' got) expected then "agree(bounded)"
            else "MISMATCH"
        in
        [
          string_of_int width;
          string_of_int (Theory.size sigma);
          string_of_int (Theory.size dat);
          string_of_int stats.Saturate.resolutions;
          agree;
          ms t;
        ])
      [ 1; 2; 3; 4; 5 ]
  in
  table [ "datalog layer"; "|Σ|"; "|dat(Σ)|"; "objects"; "answers"; "time" ] rows;
  Fmt.pr
    "@.(the object count grows with the subsets of side conditions: the paper's@.\
     \ double-exponential worst case for Def. 19 is real; see the blow-up section)@."

(* ------------------------------------------------------------------ *)
(* SEC7: conjunctive query answering                                   *)

let sec7 () =
  section "sec7" "Section 7: conjunctive queries over enriched databases";
  let sigma = small_fg_theory () in
  let db = Parser.database_of_string Workloads.small_fg_db_text in
  let queries =
    [
      "keywords(P, K1, K2), hasTopic(P, K1) -> q(P).";
      "hasAuthor(P, A), scientific(T), hasTopic(P, T) -> q(A).";
      "scientific(T) -> q().";
    ]
  in
  let rows =
    List.map
      (fun text ->
        let q, _ = Guarded_cq.Cq.of_string text in
        let sort = List.sort_uniq (List.compare Term.compare) in
        let answers, t = time (fun () -> Guarded_cq.Answer.certain_answers sigma q db) in
        let via_chase, t2 = time (fun () -> fst (Guarded_cq.Answer.answers_via_chase sigma q db)) in
        [
          String.trim text;
          string_of_int (List.length answers);
          (if sort answers = sort via_chase then "agree" else "MISMATCH");
          ms t;
          ms t2;
        ])
      queries
  in
  table [ "conjunctive query"; "answers"; "vs chase"; "pipeline"; "chase" ] rows

(* ------------------------------------------------------------------ *)
(* THM4: the TM simulation                                             *)

let thm4 () =
  section "thm4" "Theorem 4: weakly guarded rules capture ExpTime on strings";
  let machines =
    [
      (Capture.Turing.parity_machine, [ [ "one"; "one" ]; [ "one"; "zero" ]; [ "zero" ] ]);
      ( Capture.Turing.balanced_machine,
        [ [ "zero"; "one" ]; [ "zero"; "zero"; "one"; "one" ]; [ "one"; "zero" ] ] );
    ]
  in
  let rows =
    List.concat_map
      (fun (spec, words) ->
        List.map
          (fun word ->
            let db, info = Capture.String_db.encode ~k:1 word in
            let direct = Capture.Turing.accepts spec ~cells:info.Capture.String_db.cells word in
            let (via, t) =
              time (fun () ->
                  match Capture.Tm_encode.accepts ~k:1 spec db with
                  | Ok b -> b
                  | Error m -> failwith m)
            in
            [
              spec.Capture.Turing.sp_name;
              "[" ^ String.concat ";" word ^ "]";
              string_of_bool direct;
              string_of_bool via;
              (if direct = via then "agree" else "MISMATCH");
              ms t;
            ])
          words)
      machines
  in
  table [ "machine"; "word"; "direct"; "via chase"; "Thm 4"; "time" ] rows;
  Fmt.pr "@.exponential-time witness (binary counter):@.";
  let rows2 =
    List.map
      (fun n ->
        let input = Capture.Turing.counter_input n in
        let db, _ = Capture.String_db.encode ~k:1 input in
        let direct = Capture.Turing.run Capture.Turing.counter_machine ~cells:(n + 2) input in
        let (res : Engine.result), t =
          time (fun () ->
              Engine.run
                ~limits:{ max_derivations = 1_000_000; max_depth = None }
                (Capture.Tm_encode.theory ~k:1 Capture.Turing.counter_machine)
                db)
        in
        [
          string_of_int n;
          string_of_int direct.Capture.Turing.steps;
          string_of_int res.Engine.derivations;
          string_of_bool (Database.mem res.Engine.db (Atom.make Capture.Tm_encode.accept []));
          ms t;
        ])
      [ 2; 3; 4; 5; 6 ]
  in
  table [ "bits n"; "machine steps"; "chase derivations"; "accepts"; "time" ] rows2;
  Fmt.pr "@.the cited PTime baseline (semipositive Datalog, no value invention):@.";
  let rows3 =
    List.map
      (fun word ->
        let db, info = Capture.String_db.encode ~k:1 word in
        let direct =
          Capture.Turing.accepts Capture.Turing.parity_machine
            ~cells:info.Capture.String_db.cells word
        in
        let via, t =
          time (fun () -> Capture.Ptime_encode.accepts ~time:2 Capture.Turing.parity_machine db)
        in
        [
          "[" ^ String.concat ";" word ^ "]";
          string_of_bool direct;
          string_of_bool via;
          (if direct = via then "agree" else "MISMATCH");
          ms t;
        ])
      [ [ "one"; "one" ]; [ "one"; "zero"; "one" ]; [ "zero" ] ]
  in
  table [ "word"; "direct"; "via semipositive Datalog"; "PTime baseline"; "time" ] rows3

(* ------------------------------------------------------------------ *)
(* THM5: Σ_succ and the EVEN query                                     *)

let thm5 () =
  section "thm5" "Theorem 5: stratified weakly guarded rules capture ExpTime";
  let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
  let rows =
    List.map
      (fun n ->
        let db =
          Database.of_atoms
            (List.init n (fun i -> Atom.make "elem" [ Term.Const (Fmt.str "c%d" i) ]))
        in
        let (orders, _), t =
          time (fun () -> Capture.Succ_order.good_orders ?pool:!current_pool db)
        in
        let even, t2 =
          time (fun () -> Capture.Succ_order.even_cardinality ?pool:!current_pool db)
        in
        [
          string_of_int n;
          string_of_int (List.length orders);
          string_of_int (fact n);
          (if List.length orders = fact n then "ok" else "WRONG");
          string_of_bool even;
          ms t;
          ms t2;
        ])
      [ 1; 2; 3; 4 ]
  in
  table [ "n"; "good orders"; "n!"; "Thm 5"; "evenCard"; "orders time"; "even time" ] rows;
  Fmt.pr "@.Σ_code characteristic strings:@.";
  let d = Parser.database_of_string "r(a). r(c). min(a). succ(a, b). succ(b, c). max(c)." in
  let sdb = Capture.Sigma_code.encode ~rel:"r" ~arity:1 d in
  Fmt.pr "  r = {a, c} over a<b<c  ->  %s@."
    (String.concat ""
       (List.map
          (function "one" -> "1" | "zero" -> "0" | _ -> "_")
          (Capture.String_db.decode ~k:1 sdb)))

(* ------------------------------------------------------------------ *)
(* BLOWUP: translation sizes against the stated bounds                 *)

let blowup () =
  section "blowup" "Section 6: translation blow-up (worst-case exponential)";
  let rows =
    List.map
      (fun vars ->
        (* a cycle rule with [vars] variables, frontier-guarded *)
        let atoms =
          String.concat ", "
            (List.init vars (fun i -> Fmt.str "e(X%d, X%d)" i ((i + 1) mod vars)))
        in
        let sigma =
          Parser.theory_of_string
            (Fmt.str
               {|
           seed(X) -> exists Y. e(X, Y).
           %s -> cyc(X0).
         |}
               atoms)
        in
        let norm = Normalize.normalize sigma in
        match
          time (fun () -> Rewrite_fg.rew_frontier_guarded ~max_rules:300_000 norm)
        with
        | (_, stats), t ->
          [
            string_of_int vars;
            string_of_int (Theory.size norm);
            string_of_int stats.Guarded_translate.Expansion.output_rules;
            string_of_int stats.Guarded_translate.Expansion.aux_relations;
            ms t;
          ]
        | exception Guarded_translate.Expansion.Budget_exceeded _ ->
          [ string_of_int vars; string_of_int (Theory.size norm); ">300000"; "-"; "-" ])
      [ 2; 3; 4; 5; 6; 7 ]
  in
  table [ "cycle length"; "|Σ|"; "|ex(Σ)|"; "aux rels"; "time" ] rows

(* ------------------------------------------------------------------ *)
(* ABLATION: design choices called out in DESIGN.md                    *)

let ablation () =
  section "ablation" "ablations of the implementation's design choices";
  (* 1. Guard enumeration: goal-directed (node relations) vs the
     paper-literal "any relation of Σ". *)
  Fmt.pr "guard enumeration in ex(Σ) (small FG ontology, then the running example):@.";
  let ablate name sigma =
    let norm = Normalize.normalize sigma in
    let run guards =
      match
        time (fun () -> Guarded_translate.Expansion.expand ~max_rules:2_000_000 ~guards norm)
      with
      | (_, stats), t ->
        (string_of_int stats.Guarded_translate.Expansion.output_rules, ms t)
      | exception Guarded_translate.Expansion.Budget_exceeded _ -> (">2000000", "-")
    in
    let goal_rules, goal_time = run `Node_relations in
    let all_rules, all_time = run `All_relations in
    table
      [ "theory"; "guards"; "|ex(Σ)|"; "time" ]
      [
        [ name; "node relations (default)"; goal_rules; goal_time ];
        [ name; "all relations (paper-literal)"; all_rules; all_time ];
      ]
  in
  ablate "small FG ontology" (small_fg_theory ());
  ablate "running example Σp" (publications_theory ());
  (* 2. chase variant: oblivious (the paper's) vs restricted. *)
  Fmt.pr "@.chase variants on a pre-satisfied genealogy (person/parent cycle):@.";
  let genea =
    Parser.theory_of_string
      "person(X) -> exists Y. parent(X, Y). parent(X, Y) -> person(Y)."
  in
  let cyc_db = Parser.database_of_string "person(a). parent(a, a)." in
  let obl =
    Engine.run ~limits:{ max_derivations = 1_000; max_depth = None } genea cyc_db
  in
  let restr = Engine.run ~variant:Engine.Restricted genea cyc_db in
  table
    [ "variant"; "derivations"; "outcome" ]
    [
      [
        "oblivious (paper)";
        string_of_int obl.Engine.derivations;
        (match obl.Engine.outcome with Engine.Saturated -> "saturated" | Engine.Bounded -> "bounded");
      ];
      [
        "restricted";
        string_of_int restr.Engine.derivations;
        (match restr.Engine.outcome with Engine.Saturated -> "saturated" | Engine.Bounded -> "bounded");
      ];
    ];
  (* 3. Datalog evaluation: plain seminaive vs magic sets on a bound
     reachability query over a long chain. *)
  Fmt.pr "@.goal-directed evaluation (tc(last, X) over a 200-edge chain):@.";
  let tc = Parser.theory_of_string "e(X, Y) -> tc(X, Y). tc(X, Y), e(Y, Z) -> tc(X, Z)." in
  let chain =
    Database.of_atoms
      (List.init 200 (fun i ->
           Atom.make "e" [ Term.Const (Fmt.str "n%d" i); Term.Const (Fmt.str "n%d" (i + 1)) ]))
  in
  let (_, t_plain) = time (fun () -> Seminaive.eval tc chain) in
  let q = Guarded_datalog.Magic.query_of_atom (Parser.atom_of_string "tc(n199, X)") in
  let (magic_ans, t_magic) = time (fun () -> Guarded_datalog.Magic.answers tc q chain) in
  table
    [ "evaluation"; "time"; "answers" ]
    [
      [ "plain seminaive (full tc)"; ms t_plain; "-" ];
      [ "magic sets (bound query)"; ms t_magic; string_of_int (List.length magic_ans) ];
    ];
  (* 3b. subsumption reduction of a translated program. *)
  Fmt.pr "@.subsumption reduction of translated Datalog programs:@.";
  let tr_small = Pipeline.to_datalog (small_fg_theory ()) in
  let reduced, t_red =
    time (fun () -> Guarded_translate.Subsumption.reduce tr_small.Pipeline.datalog)
  in
  table
    [ "program"; "rules"; "after reduction"; "time" ]
    [
      [
        "small FG ontology, compiled";
        string_of_int (Theory.size tr_small.Pipeline.datalog);
        string_of_int (Theory.size reduced);
        ms t_red;
      ];
    ];
  (* 4. dat: consequence-driven objects vs the literal Fig. 3 closure. *)
  Fmt.pr "@.dat(Σ): consequence-driven vs the literal closure (guarded family):@.";
  let rows =
    List.map
      (fun width ->
        let sigma = guarded_family width in
        let (cd, _), t_cd = time (fun () -> Saturate.dat ~max_rules:100_000 sigma) in
        let closure_cell, closure_time =
          match time (fun () -> Saturate.dat_via_closure ~max_rules:100_000 sigma) with
          | (cl, _), t -> (string_of_int (Theory.size cl), ms t)
          | exception Saturate.Budget_exceeded _ -> (">100000", "-")
        in
        [
          string_of_int width;
          string_of_int (Theory.size cd);
          ms t_cd;
          closure_cell;
          closure_time;
        ])
      [ 1; 2; 3 ]
  in
  table
    [ "datalog layer"; "|dat| (objects)"; "time"; "|dat| (closure)"; "time" ]
    rows

(* ------------------------------------------------------------------ *)
(* sat: the indexed given-clause closure vs the reference loop         *)

let sat () =
  section "sat" "indexed given-clause saturation vs the reference loop";
  let canon_set sigma =
    List.sort_uniq String.compare
      (List.map (fun r -> Rule.to_string (Rule.canonicalize r)) (Theory.rules sigma))
  in
  (* Named inputs: Example 7 and the guarded family. The "agree" column
     re-checks in place that the indexed loop builds the reference
     closure (as a canonical rule set) on every input it is timed on. *)
  Fmt.pr "@.Ξ(Σ): indexed closure vs reference (plus subsume mode):@.";
  let inputs =
    ("ex7", Parser.theory_of_string Workloads.example7_text)
    :: List.map (fun w -> (Fmt.str "family-%d" w, guarded_family w)) [ 1; 2; 3 ]
  in
  let rows =
    List.map
      (fun (name, sigma) ->
        let (xi, st), t_idx =
          time (fun () -> Saturate.closure ?pool:!current_pool ~max_rules:100_000 sigma)
        in
        let (xi_ref, _), t_ref =
          time (fun () -> Saturate.closure_reference ~max_rules:100_000 sigma)
        in
        let (_, st_sub), t_sub =
          time (fun () ->
              Saturate.closure ?pool:!current_pool ~max_rules:100_000 ~subsume:true sigma)
        in
        let agree = canon_set xi = canon_set xi_ref in
        [
          name;
          string_of_int st.Saturate.closure_rules;
          string_of_int st.Saturate.datalog_rules;
          ms t_idx;
          ms t_ref;
          (if agree then "yes" else "NO");
          string_of_int st_sub.Saturate.closure_rules;
          ms t_sub;
        ])
      inputs
  in
  table
    [ "input"; "|Ξ|"; "datalog"; "indexed"; "reference"; "agree"; "|Ξ| live"; "subsume" ]
    rows;
  (* Generated guarded theories, fixed seed: the indexed loop must
     agree with the reference on every instance (budget overflows must
     hit both). Cumulative times compare the loops across the batch. *)
  Fmt.pr "@.Ξ(Σ) on generated guarded theories (seed 42):@.";
  let rand = Random.State.make [| 42 |] in
  let theories =
    List.map Normalize.normalize
      (QCheck.Gen.generate ~n:30 ~rand Guarded_gen.Generator.gen_guarded_theory)
  in
  let budget = 2_000 in
  let run f sigma = try Some (f sigma) with Saturate.Budget_exceeded _ -> None in
  let agreements = ref 0 and mismatches = ref 0 and overflows = ref 0 in
  let total_rules = ref 0 in
  let _, t_idx =
    time (fun () ->
        List.iter
          (fun sigma ->
            match run (Saturate.closure ?pool:!current_pool ~max_rules:budget) sigma with
            | Some (_, st) -> total_rules := !total_rules + st.Saturate.closure_rules
            | None -> incr overflows)
          theories)
  in
  let _, t_ref =
    time (fun () ->
        List.iter
          (fun sigma ->
            let indexed = run (Saturate.closure ~max_rules:budget) sigma in
            let reference = run (Saturate.closure_reference ~max_rules:budget) sigma in
            match (indexed, reference) with
            | Some (xi, _), Some (xi_ref, _) ->
              if canon_set xi = canon_set xi_ref then incr agreements else incr mismatches
            | None, None -> incr agreements
            | Some _, None | None, Some _ -> incr mismatches)
          theories)
  in
  table
    [ "theories"; "agree"; "mismatch"; "overflow"; "Σ|Ξ|"; "indexed"; "indexed+reference" ]
    [
      [
        string_of_int (List.length theories);
        string_of_int !agreements;
        string_of_int !mismatches;
        string_of_int !overflows;
        string_of_int !total_rules;
        ms t_idx;
        ms t_ref;
      ];
    ];
  (* Subsumption.reduce on the closures: the indexed reducer's cost and
     effect at closure sizes. *)
  Fmt.pr "@.Subsumption.reduce on Ξ(Σ):@.";
  let rows =
    List.map
      (fun (name, sigma) ->
        let xi, _ = Saturate.closure ~max_rules:100_000 sigma in
        let reduced, t_red = time (fun () -> Subsumption.reduce xi) in
        [ name; string_of_int (Theory.size xi); string_of_int (Theory.size reduced); ms t_red ])
      inputs
  in
  table [ "input"; "|Ξ|"; "|reduce(Ξ)|"; "time" ] rows

(* ------------------------------------------------------------------ *)
(* incr: incremental maintenance vs from-scratch re-evaluation         *)

let incr () =
  section "incr" "incremental maintenance: update batches vs from-scratch";
  let atom fmt = Fmt.kstr Parser.atom_of_string fmt in
  (* Each workload assigns every entity index a fixed group of EDB
     facts. Batch [b] of a schedule retires entities [b*dels ..] and
     enrolls fresh ones past the initial population — deterministic,
     non-overlapping, and each batch touches well under 10% of the
     EDB. The delete share of the churn sweeps 0/50/100%. *)
  let ex7_entity i = [ atom "a(c%d)" i; atom "c(c%d)" i ] in
  let thm1_entity i =
    [
      atom "publication(p%d)" i;
      atom "hasAuthor(p%d, auth%d)" i i;
      atom "hasTopic(p%d, t)" i;
    ]
  in
  let workloads =
    [
      ( "ex7 dat(Σ)",
        (let dat, _ = Saturate.dat (Parser.theory_of_string Workloads.example7_text) in
         dat),
        ex7_entity,
        2000 );
      ( "thm1 fg-family",
        (Pipeline.to_datalog (fg_family 2)).Pipeline.datalog,
        thm1_entity,
        600 );
    ]
  in
  let batches = 6 in
  let rows =
    List.concat_map
      (fun (name, sigma, entity, n) ->
        List.map
          (fun del_pct ->
            let edb = Database.create () in
            for i = 0 to n - 1 do
              List.iter (fun a -> ignore (Database.add edb a)) (entity i)
            done;
            let edb_size = Database.cardinal edb in
            let churn = max 1 (n / 100) in
            let dels = churn * del_pct / 100 in
            let inss = churn - dels in
            let batch b =
              Guarded_incr.Delta.of_lists
                ~additions:
                  (List.concat_map entity (List.init inss (fun j -> n + (b * inss) + j)))
                ~deletions:(List.concat_map entity (List.init dels (fun j -> (b * dels) + j)))
            in
            let m, t_mat =
              time (fun () -> Guarded_incr.Incr.materialize ?pool:!current_pool sigma edb)
            in
            let idb_size = Database.cardinal (Guarded_incr.Incr.db m) - edb_size in
            let _, t_incr =
              time (fun () ->
                  for b = 0 to batches - 1 do
                    ignore (Guarded_incr.Incr.apply m (batch b))
                  done)
            in
            (* The from-scratch oracle replays the same schedule,
               re-running the full fixpoint after every batch — the
               serving cost without the subsystem. *)
            let reference = Database.copy edb in
            let final, t_scratch =
              time (fun () ->
                  let last = ref reference in
                  for b = 0 to batches - 1 do
                    let d = batch b in
                    List.iter
                      (fun a -> ignore (Database.remove reference a))
                      d.Guarded_incr.Delta.deletions;
                    List.iter
                      (fun a -> ignore (Database.add reference a))
                      d.Guarded_incr.Delta.additions;
                    last := Seminaive.eval ?pool:!current_pool sigma reference
                  done;
                  !last)
            in
            let agree = Database.equal (Guarded_incr.Incr.db m) final in
            [
              name;
              string_of_int (Theory.size sigma);
              string_of_int edb_size;
              string_of_int idb_size;
              string_of_int (Guarded_incr.Delta.size (batch 0));
              Fmt.str "%d%%" del_pct;
              string_of_int batches;
              (if agree then "agree" else "MISMATCH");
              ms t_mat;
              ms t_incr;
              ms t_scratch;
              Fmt.str "%.1fx" (t_scratch /. Float.max t_incr 1e-9);
            ])
          [ 0; 50; 100 ])
      workloads
  in
  table
    [
      "workload"; "rules"; "|EDB|"; "|IDB|"; "batch facts"; "deletes"; "batches"; "agree";
      "materialize time"; "incr time"; "scratch time"; "speedup (timed)";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* serve: the network server under concurrent clients                  *)

(* Each client connection runs its own thread against a real Unix
   socket: a burst of relation queries, then disjoint update batches
   through the single-writer commit queue. The sweep varies the client
   count; the recorded (deterministic) cells are the final epoch, EDB
   and answer counts — every timing lives in stripped columns. *)
let serve () =
  section "serve" "network serving: concurrent clients over one materialization";
  let atom fmt = Fmt.kstr Parser.atom_of_string fmt in
  let ex7_entity i = [ atom "a(c%d)" i; atom "c(c%d)" i ] in
  let thm1_entity i =
    [
      atom "publication(p%d)" i;
      atom "hasAuthor(p%d, auth%d)" i i;
      atom "hasTopic(p%d, t)" i;
    ]
  in
  let workloads =
    [
      ( "ex7 dat(Σ)",
        (let dat, _ = Saturate.dat (Parser.theory_of_string Workloads.example7_text) in
         dat),
        ex7_entity,
        "d",
        2000 );
      ( "thm1 fg-family",
        (Pipeline.to_datalog (fg_family 2)).Pipeline.datalog,
        thm1_entity,
        "q",
        600 );
    ]
  in
  let queries = 50 and batches = 3 and adds = 10 and dels = 5 in
  let module State = Guarded_server.State in
  let module Server = Guarded_server.Server in
  let module Client = Guarded_server.Client in
  let rows =
    List.concat_map
      (fun (name, sigma, entity, query_rel, n) ->
        List.map
          (fun clients ->
            let edb = Database.create () in
            for i = 0 to n - 1 do
              List.iter (fun a -> ignore (Database.add edb a)) (entity i)
            done;
            let edb_size = Database.cardinal edb in
            let state = State.create ?pool:!current_pool sigma edb in
            let sock = Filename.temp_file "guarded_bench" ".sock" in
            Sys.remove sock;
            let srv = Server.listen state (Server.Unix_socket sock) in
            (* Client [k]'s batch [b]: enroll fresh entities past the
               initial population, retire initial ones — all ranges
               disjoint across clients and batches, so the final EDB
               does not depend on the commit interleaving. *)
            let batch k b =
              Guarded_incr.Delta.of_lists
                ~additions:
                  (List.concat_map entity
                     (List.init adds (fun j -> n + (((k * batches) + b) * adds) + j)))
                ~deletions:
                  (List.concat_map entity
                     (List.init dels (fun j -> (((k * batches) + b) * dels) + j)))
            in
            let client k () =
              let c = Client.connect (Server.address srv) in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  for b = 0 to batches - 1 do
                    for _ = 1 to queries / batches do
                      ignore (Client.query c query_rel)
                    done;
                    match Client.commit c (batch k b) with
                    | Ok _ -> ()
                    | Error m -> failwith m
                  done;
                  for _ = 1 to queries mod batches do
                    ignore (Client.query c query_rel)
                  done)
            in
            let _, t_wall =
              time (fun () ->
                  let threads = List.init clients (fun k -> Thread.create (client k) ()) in
                  List.iter Thread.join threads)
            in
            let final_answers =
              let c = Client.connect (Server.address srv) in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () -> List.length (Client.query c query_rel))
            in
            let stats = State.stats state in
            Server.stop srv;
            let qps = float_of_int (clients * queries) /. Float.max t_wall 1e-9 in
            [
              name;
              string_of_int (Theory.size sigma);
              string_of_int edb_size;
              string_of_int clients;
              string_of_int queries;
              string_of_int batches;
              string_of_int stats.Guarded_server.Wire.s_epoch;
              string_of_int stats.Guarded_server.Wire.s_edb_facts;
              string_of_int final_answers;
              ms t_wall;
              Fmt.str "%.0f" qps;
              string_of_int stats.Guarded_server.Wire.s_query_p50_us;
              string_of_int stats.Guarded_server.Wire.s_commit_p50_us;
              string_of_int stats.Guarded_server.Wire.s_commit_p95_us;
            ])
          [ 1; 2; 4 ])
      workloads
  in
  table
    [
      "workload"; "rules"; "|EDB|"; "clients"; "queries/client"; "batches/client"; "epoch";
      "final |EDB|"; "answers"; "wall time"; "qps (timed)"; "query p50 µs"; "commit p50 µs";
      "commit p95 µs";
    ]
    rows;
  (* --- light-client sweep: connection scalability ------------------ *)
  (* Many short-lived light clients against one reactor: each runs a
     few relation-query round trips over a tiny materialization, so
     the sweep measures the event loop — poll set size, accept storms,
     per-connection buffers — rather than query evaluation. The
     acceptance check ([serve light-client check], grepped by
     scripts/perf_gate.sh) demands the 1000-client leg completes with
     zero failures. *)
  let module Wire = Guarded_server.Wire in
  let light_sigma = Parser.theory_of_string "e(X, Y) -> path(X, Y)." in
  let light_edb = Database.create () in
  for i = 0 to 63 do
    ignore
      (Database.add light_edb
         (Atom.make "e" [ Term.Const (Fmt.str "u%d" i); Term.Const (Fmt.str "v%d" i) ]))
  done;
  let rounds = 8 in
  let sweep_ok = ref true in
  let held = ref 0 in
  let light_rows =
    List.map
      (fun clients ->
        ignore (Guarded_server.Evloop.raise_fd_limit ((2 * clients) + 512));
        let state = State.create ?pool:!current_pool light_sigma (Database.copy light_edb) in
        let sock = Filename.temp_file "guarded_bench" ".sock" in
        Sys.remove sock;
        let srv = Server.listen state (Server.Unix_socket sock) in
        let lat = Array.make (clients * rounds) Float.nan in
        let fmutex = Mutex.create () in
        let failures = ref 0 in
        let fail k =
          ignore k;
          Mutex.lock fmutex;
          failures := !failures + 1;
          Mutex.unlock fmutex
        in
        let client k () =
          match Client.connect (Server.address srv) with
          | exception _ ->
            for _ = 1 to rounds do fail k done
          | c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                for r = 0 to rounds - 1 do
                  let t0 = Unix.gettimeofday () in
                  match Client.request c (Wire.Query { rel = "path"; pattern = None }) with
                  | Wire.Answers l when List.length l = 64 ->
                    lat.((k * rounds) + r) <- Unix.gettimeofday () -. t0
                  | _ -> fail k
                  | exception _ -> fail k
                done)
        in
        let _, t_wall =
          time (fun () ->
              let threads = List.init clients (fun k -> Thread.create (client k) ()) in
              List.iter Thread.join threads)
        in
        let stalls, open_after =
          let c = Client.connect (Server.address srv) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let s = Client.stats c in
              (s.Wire.s_backpressure_stalls, s.Wire.s_connections_open))
        in
        Server.stop srv;
        let samples =
          Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list lat))
        in
        Array.sort Float.compare samples;
        let pct p =
          if Array.length samples = 0 then 0.
          else
            samples.(min (Array.length samples - 1)
                       (int_of_float (p *. float_of_int (Array.length samples))))
        in
        sweep_ok := !sweep_ok && !failures = 0;
        if !failures = 0 then held := max !held clients;
        [
          "light `? path`";
          string_of_int clients;
          string_of_int rounds;
          string_of_int !failures;
          string_of_int open_after;
          string_of_int stalls;
          ms t_wall;
          Fmt.str "%.0f" (float_of_int (clients * rounds) /. Float.max t_wall 1e-9);
          Fmt.str "%.0f" (pct 0.50 *. 1e6);
          Fmt.str "%.0f" (pct 0.95 *. 1e6);
        ])
      [ 200; 600; 1000 ]
  in
  Fmt.pr "serve light-client check: %s (%d concurrent clients held)@."
    (if !sweep_ok && !held >= 1000 then "ok" else "FAILED")
    !held;
  table
    [
      "workload"; "clients"; "round trips"; "failures"; "connections_open"; "stalls";
      "wall time"; "rps (timed)"; "p50 µs (timed)"; "p95 µs (timed)";
    ]
    light_rows;
  (* --- replica sweep: read scaling + replication lag ---------------- *)
  (* One primary plus 0/1/2 read replicas under a read-heavy mix:
     every write commits on the primary, reads round-robin across the
     replicas (or hit the primary when there are none). Each replica's
     server runs in its own domain — systhreads share their domain's
     runtime lock, so in-domain replicas would fake the read scaling
     this sweep exists to show. The acceptance check ([serve replica
     check], grepped by scripts/perf_gate.sh) demands zero failures,
     full drains (lag back to 0) and answer agreement between every
     replica and the primary on all legs. *)
  let module Replica = Guarded_repl.Replica in
  let module Cluster = Guarded_repl.Cluster in
  let repl_sigma = Parser.theory_of_string "e(X, Y) -> path(X, Y)." in
  let repl_edb () =
    let d = Database.create () in
    for i = 0 to 63 do
      ignore
        (Database.add d
           (Atom.make "e" [ Term.Const (Fmt.str "u%d" i); Term.Const (Fmt.str "v%d" i) ]))
    done;
    d
  in
  let clients = 4 and reads = 200 and rbatches = 2 and radds = 8 in
  let repl_ok = ref true in
  let repl_rows =
    List.map
      (fun replicas ->
        let state = State.create repl_sigma (repl_edb ()) in
        let sock = Filename.temp_file "guarded_bench" ".sock" in
        Sys.remove sock;
        let srv = Server.listen state (Server.Unix_socket sock) in
        let primary = Server.address srv in
        (* Each replica bootstraps from the primary's wire snapshot and
           serves from its own domain; its address comes back through
           an atomic slot, the stop order goes in through another. *)
        let stop_flag = Atomic.make false in
        let slots = Array.init replicas (fun _ -> Atomic.make None) in
        let domains =
          List.init replicas (fun i ->
              Domain.spawn (fun () ->
                  let rsock = Filename.temp_file "guarded_bench" ".sock" in
                  Sys.remove rsock;
                  match Replica.start ~primary (Server.Unix_socket rsock) with
                  | Error msg -> failwith ("replica bootstrap: " ^ msg)
                  | Ok rep ->
                    Atomic.set slots.(i) (Some (Server.address (Replica.server rep)));
                    while not (Atomic.get stop_flag) do
                      Thread.delay 0.002
                    done;
                    Replica.stop rep))
        in
        let deadline = Unix.gettimeofday () +. 30. in
        Array.iter
          (fun slot ->
            while Atomic.get slot = None && Unix.gettimeofday () < deadline do
              Thread.delay 0.002
            done)
          slots;
        let replica_addrs =
          Array.to_list slots
          |> List.filter_map Atomic.get
        in
        if List.length replica_addrs <> replicas then repl_ok := false;
        let read_endpoints = if replica_addrs = [] then [ primary ] else replica_addrs in
        let fmutex = Mutex.create () in
        let failures = ref 0 in
        let lat = Array.make (clients * reads) Float.nan in
        let client k () =
          let cl = Cluster.make read_endpoints in
          let pc = Client.connect primary in
          Fun.protect
            ~finally:(fun () ->
              Cluster.close cl;
              Client.close pc)
            (fun () ->
              let batch b =
                Guarded_incr.Delta.of_lists ~deletions:[]
                  ~additions:
                    (List.init radds (fun j ->
                         let i = 64 + (((k * rbatches) + b) * radds) + j in
                         Atom.make "e"
                           [ Term.Const (Fmt.str "u%d" i); Term.Const (Fmt.str "v%d" i) ]))
              in
              for b = 0 to rbatches - 1 do
                for r = 0 to (reads / rbatches) - 1 do
                  let t0 = Unix.gettimeofday () in
                  match Cluster.read cl (Wire.Query { rel = "path"; pattern = None }) with
                  | Wire.Answers _ ->
                    lat.((k * reads) + (b * (reads / rbatches)) + r) <-
                      Unix.gettimeofday () -. t0
                  | _ ->
                    Mutex.lock fmutex;
                    failures := !failures + 1;
                    Mutex.unlock fmutex
                  | exception _ ->
                    Mutex.lock fmutex;
                    failures := !failures + 1;
                    Mutex.unlock fmutex
                done;
                match Client.commit pc (batch b) with
                | Ok _ -> ()
                | Error _ | (exception _) ->
                  Mutex.lock fmutex;
                  failures := !failures + 1;
                  Mutex.unlock fmutex
              done)
        in
        let _, t_wall =
          time (fun () ->
              let threads = List.init clients (fun k -> Thread.create (client k) ()) in
              List.iter Thread.join threads)
        in
        let final_epoch = State.epoch state in
        (* Drain over the wire — the replicas live in other domains;
           their STATS lag key is the cross-domain-safe view. *)
        let drain_one addr =
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let deadline = Unix.gettimeofday () +. 30. in
              let rec go () =
                let s = Client.stats c in
                if s.Wire.s_epoch >= final_epoch && s.Wire.s_replication_lag_epochs = 0 then
                  true
                else if Unix.gettimeofday () > deadline then false
                else begin
                  Thread.delay 0.002;
                  go ()
                end
              in
              go ())
        in
        let _, t_drain = time (fun () -> List.for_all drain_one replica_addrs) in
        let drained = List.for_all drain_one replica_addrs in
        let primary_answers =
          let c = Client.connect primary in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () -> List.length (Client.query c "path"))
        in
        let agree =
          List.for_all
            (fun addr ->
              let c = Client.connect addr in
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () -> List.length (Client.query c "path") = primary_answers))
            replica_addrs
        in
        Atomic.set stop_flag true;
        List.iter Domain.join domains;
        Server.stop srv;
        let leg_ok = !failures = 0 && drained && agree in
        repl_ok := !repl_ok && leg_ok;
        let samples =
          Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list lat))
        in
        Array.sort Float.compare samples;
        let pct p =
          if Array.length samples = 0 then 0.
          else
            samples.(min (Array.length samples - 1)
                       (int_of_float (p *. float_of_int (Array.length samples))))
        in
        [
          "replicated `? path`";
          string_of_int replicas;
          string_of_int clients;
          string_of_int reads;
          string_of_int rbatches;
          string_of_int final_epoch;
          string_of_int primary_answers;
          string_of_int !failures;
          (if drained then "yes" else "no");
          (if agree then "yes" else "no");
          ms t_wall;
          Fmt.str "%.0f" (float_of_int (clients * reads) /. Float.max t_wall 1e-9);
          Fmt.str "%.0f" (pct 0.50 *. 1e6);
          Fmt.str "%.0f" (pct 0.95 *. 1e6);
          ms t_drain;
        ])
      [ 0; 1; 2 ]
  in
  Fmt.pr "serve replica check: %s@." (if !repl_ok then "ok" else "FAILED");
  table
    [
      "workload"; "replicas"; "clients"; "reads/client"; "batches/client"; "epoch";
      "answers"; "failures"; "drained (lag=0)"; "agreement"; "wall time"; "reads/s (timed)";
      "read p50 µs (timed)"; "read p95 µs (timed)"; "drain time";
    ]
    repl_rows

(* ------------------------------------------------------------------ *)
(* ingest: bulk LOAD blocks vs the +fact. text stream                  *)

(* One client ships a 120k-fact EDB into a fresh server twice: once as
   pipelined [+fact.] text frames (per-line parsing on the server),
   once as binary [LOAD] blocks (codec decode, no text). Both stage
   into the same session staging lists and COMMIT applies the same
   delta, so the resulting EDBs must be equal — the recorded cells are
   the deterministic counts and the agreement, the staging times live
   in stripped columns, and the acceptance check demands LOAD beats
   text by >= 5x. *)
let ingest () =
  section "ingest" "bulk EDB ingest: binary LOAD blocks vs +fact. text frames";
  let module State = Guarded_server.State in
  let module Server = Guarded_server.Server in
  let module Client = Guarded_server.Client in
  let module Wire = Guarded_server.Wire in
  let module Incr = Guarded_incr.Incr in
  ignore (Guarded_server.Evloop.raise_fd_limit 1024);
  let sigma = Parser.theory_of_string "e(X, Y) -> path(X, Y)." in
  let n = 120_000 in
  let chunk = 8192 in
  let facts =
    List.init n (fun i ->
        Atom.make "e" [ Term.Const (Fmt.str "x%d" i); Term.Const (Fmt.str "y%d" i) ])
  in
  let run use_load =
    (* Level the field: earlier legs' garbage must not charge its major
       slices to this leg's staging loop. *)
    Gc.full_major ();
    let edb = Database.create () in
    ignore (Database.add edb (Parser.atom_of_string "e(seed_a, seed_b)"));
    let state = State.create ?pool:!current_pool sigma edb in
    let sock = Filename.temp_file "guarded_bench" ".sock" in
    Sys.remove sock;
    let srv = Server.listen state (Server.Unix_socket sock) in
    let c = Client.connect (Server.address srv) in
    let (), t_stage =
      time (fun () ->
          if use_load then begin
            match Client.load ~chunk c facts with
            | Ok m when m = n -> ()
            | Ok m -> failwith (Fmt.str "ingest: staged %d of %d" m n)
            | Error m -> failwith m
          end
          else
            List.iter
              (function
                | Wire.Ok -> ()
                | Wire.Failed m -> failwith m
                | _ -> failwith "ingest: unexpected staging reply")
              (Client.pipeline c (List.map (fun a -> Wire.Add a) facts)))
    in
    let res, t_commit = time (fun () -> Client.request c Wire.Commit) in
    (match res with
    | Wire.Committed _ -> ()
    | Wire.Failed m -> failwith ("ingest: commit failed: " ^ m)
    | _ -> failwith "ingest: expected COMMITTED");
    let stats = Client.stats c in
    Client.close c;
    let edb_after = State.with_read state (fun m -> Database.copy (Incr.edb m)) in
    Server.stop srv;
    (t_stage, t_commit, stats.Wire.s_edb_facts, stats.Wire.s_load_facts, edb_after)
  in
  let t_text, tc_text, edb_text, lf_text, db_text = run false in
  let t_load, tc_load, edb_load, lf_load, db_load = run true in
  let agree = Database.equal db_text db_load in
  let speedup = t_text /. Float.max t_load 1e-9 in
  let ok = agree && speedup >= 5. && lf_load = n && lf_text = 0 in
  Fmt.pr "ingest speedup check: %s (text %s vs LOAD %s, %.1fx >= 5x, %s)@."
    (if ok then "ok" else "FAILED")
    (ms t_text) (ms t_load) speedup
    (if agree then "EDBs agree" else "EDB MISMATCH");
  let row path frames t_stage t_commit edb_after load_facts =
    [
      path;
      string_of_int n;
      string_of_int frames;
      string_of_int edb_after;
      string_of_int load_facts;
      (if agree then "agree" else "MISMATCH");
      ms t_stage;
      ms t_commit;
      Fmt.str "%.0f" (float_of_int n /. Float.max t_stage 1e-9);
    ]
  in
  table
    [
      "path"; "|facts|"; "frames"; "|EDB| after"; "load_facts"; "agree"; "stage time";
      "commit time"; "staged facts/s (timed)";
    ]
    [
      row "+fact. text" n t_text tc_text edb_text lf_text;
      row "binary LOAD" ((n + chunk - 1) / chunk) t_load tc_load edb_load lf_load;
    ]

(* The thm1-family serving scenario that motivates ISSUE 7: a corpus
   partitioned into [layers] topic-disjoint citation graphs, each with
   its own reachability closure — but the served queries only ever ask
   about one topic (1 of 2·[layers] relations, well under 10%).
   Materialized serving pays the closure of every layer up front;
   demand-driven serving evaluates exactly the queried layer through
   the magic transform and tables it in the subgoal cache, so resident
   heap tracks the demanded slice and repeat queries are cache hits.

   The two acceptance checks print as [demand ... check: ok/FAILED]
   lines (grepped by scripts/perf_gate.sh) with the measured ratios;
   the table keeps the deterministic cells — fact counts, cache
   counters, agreement — plus stripped timing columns. Heap deltas are
   [Gc.live_words] after compaction, demand side measured first so the
   shared hash-consed EDB terms are charged against it, not against
   the materialized side it must beat. *)
let demand () =
  section "demand" "demand-driven serving: magic + subgoal cache vs materialization";
  let module Incr = Guarded_incr.Incr in
  let module Demand = Guarded_incr.Demand in
  let layers = 12 in
  let sigma =
    Parser.theory_of_string
      (String.concat "\n"
         (List.init layers (fun i ->
              Fmt.str
                "citedIn%d(X, Y) -> reach%d(X, Y). citedIn%d(X, Z), reach%d(Z, Y) -> reach%d(X, Y)."
                i i i i i)))
  in
  let live_mb () =
    Gc.compact ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
  in
  let hot_reps = 200 in
  let heap_ok = ref true and hot_ok = ref true in
  let rows =
    List.map
      (fun n ->
        (* layer [i]'s citation chain: p{i}_0 -> p{i}_1 -> ... *)
        let edb = Database.create () in
        for i = 0 to layers - 1 do
          for j = 0 to n - 1 do
            ignore
              (Database.add edb
                 (Atom.make
                    (Fmt.str "citedIn%d" i)
                    [ Term.Const (Fmt.str "p%d_%d" i j); Term.Const (Fmt.str "p%d_%d" i (j + 1)) ]))
          done
        done;
        let edb_size = Database.cardinal edb in
        let base0 = live_mb () in
        let d = Demand.create ?pool:!current_pool sigma edb in
        let demand_answers, t_cold = time (fun () -> Demand.answers d ~query:"reach0") in
        let _, t_hot_total =
          time (fun () ->
              for _ = 1 to hot_reps do
                ignore (Demand.answers d ~query:"reach0")
              done)
        in
        let t_hot = t_hot_total /. float_of_int hot_reps in
        let demand_mb = live_mb () -. base0 in
        let cache = Demand.cache_stats d in
        let base1 = live_mb () in
        let m = Incr.materialize ?pool:!current_pool sigma edb in
        let mat_mb = live_mb () -. base1 in
        let mat_answers = Incr.answers m ~query:"reach0" in
        let sorted l = List.sort (List.compare Term.compare) l in
        let agree = sorted demand_answers = sorted mat_answers in
        let heap_ratio = mat_mb /. Float.max demand_mb 1e-9 in
        let hot_speedup = t_cold /. Float.max t_hot 1e-9 in
        let row_heap_ok = heap_ratio >= 2. in
        let row_hot_ok = hot_speedup >= 5. in
        heap_ok := !heap_ok && row_heap_ok;
        hot_ok := !hot_ok && row_hot_ok;
        Fmt.pr "demand heap check [n=%d]: %s (materialized %.1fMB vs demand %.1fMB, %.1fx >= 2x)@."
          n
          (if row_heap_ok then "ok" else "FAILED")
          mat_mb demand_mb heap_ratio;
        Fmt.pr "demand hot-query check [n=%d]: %s (cold %s vs hot %s, %.0fx >= 5x)@."
          n
          (if row_hot_ok then "ok" else "FAILED")
          (ms t_cold) (ms t_hot) hot_speedup;
        [
          string_of_int layers;
          string_of_int n;
          string_of_int edb_size;
          Fmt.str "1/%d" (2 * layers);
          string_of_int (List.length demand_answers);
          string_of_int cache.Guarded_incr.Subgoal_cache.sc_entries;
          string_of_int cache.Guarded_incr.Subgoal_cache.sc_hits;
          string_of_int cache.Guarded_incr.Subgoal_cache.sc_misses;
          (if agree then "agree" else "MISMATCH");
          (if row_heap_ok then "ok" else "FAILED");
          (if row_hot_ok then "ok" else "FAILED");
          ms t_cold;
          ms t_hot;
          Fmt.str "%.1fx" hot_speedup;
          Fmt.str "%.1f" mat_mb;
          Fmt.str "%.1f" demand_mb;
        ])
      [ 60; 120 ]
  in
  table
    [
      "layers"; "chain n"; "|EDB|"; "queried rels"; "answers"; "cache entries"; "hits"; "misses";
      "agree"; "heap >=2x"; "hot >=5x"; "cold time"; "hot time"; "speedup (timed)";
      "mat heap MB (timed)"; "demand heap MB (timed)";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* analyze: termination deciders + finite-chase serving                *)

(* The termination-zoo chains have known ground truth (acyclic chains
   drain into a sink, cyclic chains diverge on any database reaching
   the loop), so the section can assert every verdict rather than just
   print it: the deciders must classify each chain correctly AND their
   certificates must survive the independent verify_* audit. The
   serving table then keeps an acyclic chain materialized as a finite
   chase and replays an update schedule against the Datalog-translation
   backend, demanding equal answers after every batch. The acceptance
   lines ([analyze decider check] / [analyze serving check], grepped by
   scripts/perf_gate.sh) summarize both. *)
let analyze () =
  section "analyze" "chase-termination analysis and finite-chase serving";
  let module Generator = Guarded_gen.Generator in
  let module Acyclic = Guarded_analysis.Acyclic in
  let module Prover = Guarded_analysis.Prover in
  let module Chase_mat = Guarded_incr.Chase_mat in
  let module Incr = Guarded_incr.Incr in
  let decider_ok = ref true in
  let rows =
    List.concat_map
      (fun len ->
        List.map
          (fun cyclic ->
            (* The first two chain indexes get swap decorations: extra
               regular edges that must not change the verdicts. (Each
               swap roughly doubles the probe's chase width, so the
               decoration count stays fixed as the chain grows.) *)
            let sigma = Generator.zoo_chain ~swaps:[ 0; 1 ] ~len ~cyclic () in
            let (wa, ja, swa), t =
              time (fun () ->
                  (Acyclic.weak sigma, Acyclic.joint sigma, Acyclic.super_weak sigma))
            in
            let wa_acyc = match wa with Acyclic.Wa_acyclic _ -> true | _ -> false in
            let ja_acyc = match ja with Acyclic.Ja_acyclic _ -> true | _ -> false in
            let swa_acyc = match swa with Acyclic.Swa_acyclic _ -> true | _ -> false in
            let truth =
              wa_acyc = not cyclic && ja_acyc = not cyclic && swa_acyc = not cyclic
            in
            let certified =
              Acyclic.verify_weak sigma wa
              && Acyclic.verify_joint sigma ja
              && Acyclic.verify_super_weak sigma swa
            in
            (* The probe agrees: acyclic chains saturate on the first
               budget, cyclic ones exhaust it and blame a rule cycle. *)
            let probe = Prover.prove ~budgets:[ 20_000 ] sigma in
            let probe_ok =
              match probe.Prover.outcome with
              | Guarded_chase.Engine.Saturated -> not cyclic
              | Guarded_chase.Engine.Bounded -> cyclic && probe.Prover.rule_cycle <> []
            in
            decider_ok := !decider_ok && truth && certified && probe_ok;
            [
              string_of_int len;
              (if cyclic then "cyclic" else "acyclic");
              string_of_int (Theory.size sigma);
              (if wa_acyc then "WA" else "wa-cyc");
              (if ja_acyc then "JA" else "ja-cyc");
              (if swa_acyc then "SWA" else "swa-cyc");
              (if truth then "ok" else "WRONG");
              (if certified then "ok" else "REJECTED");
              (if probe_ok then "ok" else "WRONG");
              ms t;
            ])
          [ false; true ])
      [ 4; 8; 16; 32; 64 ]
  in
  Fmt.pr "analyze decider check: %s@." (if !decider_ok then "ok" else "FAILED");
  table
    [
      "chain len"; "class"; "|Σ|"; "weak"; "joint"; "super-weak"; "truth"; "certificates";
      "probe"; "decide time";
    ]
    rows;
  (* --- finite-chase serving vs the Datalog translation -------------- *)
  Fmt.pr "@.finite-chase serving vs translation backend (acyclic chains):@.";
  let serving_ok = ref true in
  let batches = 4 in
  let serve_rows =
    List.map
      (fun len ->
        (* The chain plus a frontier-guarded projection of the entry
           relation: [zsrc] has non-trivial certain answers over the
           constants, while the chain itself only produces nulls — so
           the agreement check covers both the derived-constant and the
           null-filtering paths. *)
        let sigma =
          Theory.of_rules
            (Theory.rules (Generator.zoo_chain ~len ~cyclic:false ())
            @ [
                Parser.rule_of_string "z0(X, Y) -> zsrc(X).";
                Parser.rule_of_string "z0(X, Y) -> zsrc(Y).";
              ])
        in
        let edb = Database.create () in
        for i = 0 to 7 do
          ignore
            (Database.add edb
               (Atom.make "z0" [ Term.Const (Fmt.str "u%d" i); Term.Const (Fmt.str "v%d" i) ]))
        done;
        let cm, t_chase =
          time (fun () -> Chase_mat.create ?pool:!current_pool sigma edb)
        in
        let served = Guarded_translate.Pipeline.serving_program sigma in
        let m, t_mat =
          time (fun () ->
              Incr.materialize ?pool:!current_pool
                served.Guarded_translate.Pipeline.served_program edb)
        in
        (* Batch [b] enrolls a fresh chain entry; odd batches also
           retire an initial one, so the schedule exercises both the
           chase-continuation path (additions only) and the re-chase
           path (effective deletions). Both backends replay it. *)
        let batch b =
          Guarded_incr.Delta.of_lists
            ~additions:
              [ Atom.make "z0" [ Term.Const (Fmt.str "w%d" b); Term.Const (Fmt.str "x%d" b) ] ]
            ~deletions:
              (if b mod 2 = 0 then []
               else [ Atom.make "z0" [ Term.Const (Fmt.str "u%d" b); Term.Const (Fmt.str "v%d" b) ] ])
        in
        let agree = ref true in
        let check () =
          agree :=
            !agree
            && Chase_mat.answers cm ~query:"zsrc" = Incr.answers m ~query:"zsrc"
            && Chase_mat.answers cm ~query:"zsink" = Incr.answers m ~query:"zsink"
            && Chase_mat.answers cm ~query:"z0" = Incr.answers m ~query:"z0"
        in
        check ();
        let _, t_apply =
          time (fun () ->
              for b = 0 to batches - 1 do
                ignore (Chase_mat.apply cm (batch b));
                ignore (Incr.apply m (batch b));
                check ()
              done)
        in
        let st = Chase_mat.stats cm in
        serving_ok := !serving_ok && !agree;
        [
          string_of_int len;
          string_of_int (Database.cardinal edb);
          string_of_int (Theory.size served.Guarded_translate.Pipeline.served_program);
          string_of_int batches;
          string_of_int st.Chase_mat.st_nulls;
          string_of_int st.Chase_mat.st_derivations;
          string_of_int st.Chase_mat.st_rechases;
          string_of_int st.Chase_mat.st_continuations;
          (if !agree then "agree" else "MISMATCH");
          ms t_chase;
          ms t_mat;
          ms t_apply;
        ])
      [ 4; 8; 16 ]
  in
  Fmt.pr "analyze serving check: %s@." (if !serving_ok then "ok" else "FAILED");
  table
    [
      "chain len"; "|EDB|"; "|datalog|"; "batches"; "nulls"; "derivations"; "rechases";
      "continuations"; "answers"; "chase time"; "translate+mat time"; "batches time";
    ]
    serve_rows

(* ------------------------------------------------------------------ *)
(* joins: the worst-case-optimal executor vs binary join plans         *)

(* Deterministic edge relations: uniform pseudo-random graphs (an LCG,
   fixed seed) and hub-skewed graphs (one node adjacent to everything,
   plus a ring). The canonical cyclic bodies — triangles and 4-cycles —
   are exactly where binary plans build intermediate results larger
   than the output; on the skewed instances the intermediates are
   quadratic in the hub degree while the output stays linear, so the
   WCOJ path wins asymptotically. The planner column records what
   [`Auto] picks; the fact counts are deterministic, the timings are
   stripped from recordings. *)
let joins () =
  section "joins" "join engine: worst-case-optimal vs binary on cyclic bodies";
  let edge db u v =
    ignore
      (Database.add db
         (Atom.make "e" [ Term.Const (Fmt.str "n%d" u); Term.Const (Fmt.str "n%d" v) ]))
  in
  let uniform_db ~nodes ~edges =
    let db = Database.create () in
    let state = ref 1234567 in
    let next () =
      (* Park–Miller minimal standard LCG; deterministic across runs. *)
      state := !state * 48271 mod 0x7FFFFFFF;
      !state
    in
    let added = ref 0 in
    while !added < edges do
      let u = next () mod nodes and v = next () mod nodes in
      if u <> v then
        if
          Database.add db
            (Atom.make "e" [ Term.Const (Fmt.str "n%d" u); Term.Const (Fmt.str "n%d" v) ])
        then added := !added + 1
    done;
    db
  in
  let hub_db ~nodes =
    (* Node 0 is bidirectionally adjacent to every other node; the rest
       form a directed ring. Binary plans joining through the hub touch
       deg(hub)^2 pairs; the output is linear in [nodes]. *)
    let db = Database.create () in
    for i = 1 to nodes - 1 do
      edge db 0 i;
      edge db i 0;
      edge db i (1 + (i mod (nodes - 1)))
    done;
    db
  in
  let queries shape =
    [
      ("triangle", "e(X, Y), e(Y, Z), e(X, Z) -> out(X).");
      ("4-cycle", "e(X, Y), e(Y, Z), e(Z, W), e(W, X) -> out(X).");
      ("path-3 (acyclic)", "e(X, Y), e(Y, Z), e(Z, W) -> out(X).");
    ]
    |> List.filter (fun (name, _) ->
           (* The longer bodies have Θ(n²) homomorphisms on a hub graph —
              every engine must enumerate them — so only the triangle
              (linear output, quadratic binary intermediates) scales. *)
           shape = "uniform" || name = "triangle")
  in
  let instances =
    [
      ("uniform", 100, uniform_db ~nodes:100 ~edges:600);
      ("uniform", 200, uniform_db ~nodes:200 ~edges:1600);
      ("uniform", 400, uniform_db ~nodes:400 ~edges:4000);
      ("hub", 4000, hub_db ~nodes:4000);
      ("hub", 8000, hub_db ~nodes:8000);
    ]
  in
  let rows =
    List.concat_map
      (fun (shape, nodes, db) ->
        let edges = Database.cardinal db in
        List.map
          (fun (name, rule_text) ->
            let sigma = Parser.theory_of_string rule_text in
            let body = Rule.body_atoms (List.hd (Theory.rules sigma)) in
            let planner =
              match Guarded_datalog.Planner.plan body with
              | Guarded_datalog.Planner.Binary -> "binary"
              | Guarded_datalog.Planner.Wcoj _ -> "wcoj"
            in
            let run join = Seminaive.eval ?pool:!current_pool ~join sigma db in
            let out_binary, t_binary = time (fun () -> run `Binary) in
            let out_wcoj, t_wcoj = time (fun () -> run `Wcoj) in
            let agree = Database.equal out_binary out_wcoj in
            let results = Database.cardinal out_binary - Database.cardinal db in
            [
              Fmt.str "%s %d/%d" shape nodes edges;
              name;
              planner;
              string_of_int results;
              (if agree then "agree" else "MISMATCH");
              ms t_binary;
              ms t_wcoj;
              Fmt.str "%.1fx" (t_binary /. Float.max t_wcoj 1e-9);
            ])
          (queries shape))
      instances
  in
  table
    [
      "graph"; "body"; "planner"; "results"; "agree"; "binary time"; "wcoj time";
      "speedup (timed)";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per experiment                       *)

let micro () =
  section "micro" "Bechamel micro-benchmarks (one per experiment)";
  let open Bechamel in
  let sigma_p = publications_theory () in
  let norm_p = Normalize.normalize sigma_p in
  let db8 = publications_db 8 in
  let ex7 = Parser.theory_of_string Workloads.example7_text in
  let small = small_fg_theory () in
  let small_norm = Normalize.normalize small in
  let word = [ "one"; "zero"; "one" ] in
  let tm_db, _ = Capture.String_db.encode ~k:1 word in
  let _tm_theory = Capture.Tm_encode.theory ~k:1 Capture.Turing.parity_machine in
  let elem3 =
    Database.of_atoms (List.init 3 (fun i -> Atom.make "elem" [ Term.Const (Fmt.str "c%d" i) ]))
  in
  let cq_db = Parser.database_of_string Workloads.small_fg_db_text in
  let cq, _ = Guarded_cq.Cq.of_string "hasAuthor(P, A), scientific(T), hasTopic(P, T) -> q(A)." in
  let tests =
    [
      Test.make ~name:"fig1-classify" (Staged.stage (fun () -> Classify.classify sigma_p));
      Test.make ~name:"fig2-chase"
        (Staged.stage (fun () -> Engine.run ?pool:!current_pool norm_p db8));
      Test.make ~name:"fig3-closure"
        (Staged.stage (fun () -> Saturate.closure ~max_rules:10_000 ex7));
      Test.make ~name:"thm1-rew-fg"
        (Staged.stage (fun () -> Rewrite_fg.rew_frontier_guarded ~max_rules:50_000 small_norm));
      Test.make ~name:"thm2-rew-wfg"
        (Staged.stage
           (let wfg = Normalize.normalize (Parser.theory_of_string Workloads.wfg_text) in
            fun () -> Annotate.rew_weakly_frontier_guarded ~max_rules:50_000 wfg));
      Test.make ~name:"thm3-dat" (Staged.stage (fun () -> Saturate.dat ex7));
      Test.make ~name:"sec7-cq"
        (Staged.stage (fun () -> Guarded_cq.Answer.certain_answers small cq cq_db));
      Test.make ~name:"thm4-tm-chase"
        (Staged.stage (fun () -> Capture.Tm_encode.accepts ~k:1 Capture.Turing.parity_machine tm_db));
      Test.make ~name:"thm5-orders"
        (Staged.stage (fun () -> Capture.Succ_order.good_orders ?pool:!current_pool elem3));
      Test.make ~name:"datalog-seminaive"
        (Staged.stage
           (let tc =
              Parser.theory_of_string
                "e(X, Y) -> tc(X, Y). tc(X, Y), e(Y, Z) -> tc(X, Z)."
            in
            let chain =
              Database.of_atoms
                (List.init 64 (fun i ->
                     Atom.make "e"
                       [ Term.Const (Fmt.str "n%d" i); Term.Const (Fmt.str "n%d" (i + 1)) ]))
            in
            fun () -> Seminaive.eval ?pool:!current_pool tc chain));
    ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  (* Modest sampling budget: the section's wall time is almost entirely
     quota * tests, and regression tracking needs the section cheap
     enough to sweep across domain counts. *)
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.15) ~kde:None () in
  let grouped = Test.make_grouped ~name:"guarded" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> Fmt.str "%.1f" (e /. 1_000.)
          | _ -> "-"
        in
        [ name; est ] :: acc)
      ols []
    |> List.sort compare
  in
  table [ "operation"; "µs/run" ] rows

(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("thm1", thm1);
    ("thm2", thm2);
    ("thm3", thm3);
    ("sec7", sec7);
    ("thm4", thm4);
    ("thm5", thm5);
    ("blowup", blowup);
    ("ablation", ablation);
    ("sat", sat);
    ("incr", incr);
    ("serve", serve);
    ("ingest", ingest);
    ("demand", demand);
    ("analyze", analyze);
    ("joins", joins);
    ("micro", micro);
  ]

let parse_domains spec =
  List.map
    (fun s ->
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> failwith (Fmt.str "bench: --domains expects positive counts, got %S" s))
    (String.split_on_char ',' spec)

let run_sections ~suffix requested =
  List.iter
    (fun id ->
      match List.assoc_opt id all_sections with
      | Some f ->
        json_begin_section (id ^ suffix);
        (* Isolate sections from each other's garbage: a section's time
           should not depend on which sections ran before it. *)
        Gc.full_major ();
        let alloc0 = Gc.allocated_bytes () in
        let (), t = time f in
        let alloc_mb = (Gc.allocated_bytes () -. alloc0) /. 1e6 in
        let heap_mb =
          float_of_int (Gc.quick_stat ()).Gc.top_heap_words
          *. float_of_int (Sys.word_size / 8) /. 1e6
        in
        (match !json_current with
        | Some js ->
          js.js_seconds <- t;
          js.js_alloc_mb <- alloc_mb;
          js.js_heap_mb <- heap_mb
        | None -> ())
      | None ->
        Fmt.epr "unknown section %S (known: %s)@." id
          (String.concat " " (List.map fst all_sections)))
    requested

(* One leg of a multi-count sweep, run with [n] domains and section ids
   suffixed by [suffix]. *)
let run_leg ~n ~suffix requested =
  let pool = Pool.create ~domains:n () in
  current_pool := Some pool;
  current_domains := Some n;
  run_sections ~suffix requested;
  current_pool := None;
  current_domains := None;
  Pool.shutdown pool

(* Spawn this very executable for one leg of the sweep (inheriting the
   console), with [--leg] marking it a child. Sweep legs get a fresh
   process each: global state accumulated by earlier legs — the
   hash-cons tables most of all, which every gensym-heavy rewriting
   grows — otherwise taxes later legs, and the recorded seconds would
   measure leg order instead of domain count. *)
let spawn_leg ~n ~suffix ~json_file requested =
  let args =
    [ Sys.executable_name; "--domains"; string_of_int n; "--leg"; suffix ]
    @ (match json_file with Some f -> [ "--json"; f ] | None -> [])
    @ requested
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
      Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (Fmt.str "bench: the leg for %d domains failed" n)

(* Merge the children's recordings: each file is our own emitter's
   output, so the section objects can be spliced textually — everything
   between ["sections": \[] and the closing ["\n  ]\n}\n"]. *)
let json_merge ~into files =
  let read_all file =
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let sections_text file =
    let s = read_all file in
    let marker = "\"sections\": [" in
    let rec find i =
      if i + String.length marker > String.length s then
        failwith (Fmt.str "bench: %s is not a bench recording" file)
      else if String.sub s i (String.length marker) = marker then i + String.length marker
      else find (i + 1)
    in
    let start = find 0 in
    let tail = "\n  ]\n}\n" in
    String.sub s start (String.length s - start - String.length tail)
  in
  let parts = List.filter (fun p -> String.trim p <> "") (List.map sections_text files) in
  let oc = open_out into in
  Printf.fprintf oc "{\n  \"generated_by\": \"bench/main.exe --json\",\n  \"sections\": [%s\n  ]\n}\n"
    (String.concat "," parts);
  close_out oc

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split_flags json domains leg acc = function
    | "--json" :: file :: rest ->
      json_enabled := true;
      split_flags (Some file) domains leg acc rest
    | "--json" :: [] -> failwith "bench: --json expects a file argument"
    | "--domains" :: spec :: rest ->
      split_flags json (Some (parse_domains spec)) leg acc rest
    | "--domains" :: [] -> failwith "bench: --domains expects counts, e.g. 1,4"
    | "--leg" :: suffix :: rest -> split_flags json domains (Some suffix) acc rest
    | "--leg" :: [] -> failwith "bench: --leg expects a suffix (internal flag)"
    | a :: rest -> split_flags json domains leg (a :: acc) rest
    | [] -> (json, domains, leg, List.rev acc)
  in
  let json_file, domains, leg, requested = split_flags None None None [] args in
  let requested = if requested = [] then List.map fst all_sections else requested in
  match (domains, leg) with
  | None, _ -> (
    run_sections ~suffix:"" requested;
    match json_file with
    | Some file ->
      json_write file;
      Fmt.pr "@.wrote %s (%d sections)@." file (List.length !json_sections)
    | None -> ())
  | Some [ n ], Some suffix -> (
    (* Child leg of a sweep. *)
    run_leg ~n ~suffix requested;
    match json_file with Some file -> json_write file | None -> ())
  | Some _, Some _ -> failwith "bench: --leg expects exactly one domain count"
  | Some counts, None ->
    (* The first count keeps the plain section ids so its recording
       stays diffable against sequential baselines. *)
    let legs =
      List.mapi
        (fun i n ->
          let suffix = if i = 0 then "" else Fmt.str "@d%d" n in
          let child_json =
            Option.map (fun _ -> Filename.temp_file "bench_leg" ".json") json_file
          in
          (n, suffix, child_json))
        counts
    in
    List.iter
      (fun (n, suffix, child_json) ->
        Fmt.pr "@.### domains = %d ###@." n;
        Fmt.pr "@?";
        spawn_leg ~n ~suffix ~json_file:child_json requested)
      legs;
    (match json_file with
    | Some file ->
      let files = List.filter_map (fun (_, _, f) -> f) legs in
      json_merge ~into:file files;
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files;
      Fmt.pr "@.wrote %s (%d legs)@." file (List.length legs)
    | None -> ())
