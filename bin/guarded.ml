(** The [guarded] command-line tool: classify, normalize, translate,
    chase and query theories of existential rules from the shell.

    {v
      guarded classify  THEORY
      guarded analyze   THEORY [--budgets N,..]
      guarded normalize THEORY
      guarded translate THEORY [--target datalog|weakly-guarded]
      guarded chase     THEORY DATABASE [--max-derivations N] [--max-depth N]
      guarded answer    THEORY DATABASE --query Q
      guarded cq        THEORY DATABASE --cq "body -> q(X)."
    v} *)

open Guarded_core
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_theory path = Parser.theory_of_string (read_file path)
let load_db path = Parser.database_of_string (read_file path)

let theory_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"THEORY" ~doc:"Rule file.")

let db_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"DATABASE" ~doc:"Database file.")

let handle_errors f =
  try f () with
  | Parser.Parse_error m -> Fmt.epr "parse error: %s@." m; exit 2
  | Rule.Ill_formed m -> Fmt.epr "ill-formed rule: %s@." m; exit 2
  | Invalid_argument m -> Fmt.epr "error: %s@." m; exit 2
  | Guarded_translate.Expansion.Budget_exceeded m
  | Guarded_translate.Saturate.Budget_exceeded m ->
    Fmt.epr "budget exceeded: %s (raise it with --budget)@." m;
    exit 3

(* --- classify -------------------------------------------------------- *)

let classify_cmd =
  let run theory_path =
    handle_errors (fun () ->
        let sigma = load_theory theory_path in
        Fmt.pr "rules:      %d@." (Theory.size sigma);
        Fmt.pr "language:   %s@." (Classify.language_name (Classify.classify sigma));
        Fmt.pr "normal:     %b@." (Normalize.is_normal sigma);
        Fmt.pr "proper:     %b@." (Classify.is_proper sigma);
        Fmt.pr "stratified: %b@." (Guarded_datalog.Stratify.is_stratified sigma);
        Fmt.pr "weakly acyclic (restricted chase terminates): %b@."
          (Acyclicity.is_weakly_acyclic sigma);
        let ap = Classify.affected_positions sigma in
        Fmt.pr "affected positions: %d@." (Classify.Pos_set.cardinal ap))
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify a theory in the languages of Figure 1.")
    Term.(const run $ theory_arg)

(* --- analyze ---------------------------------------------------------- *)

let analyze_cmd =
  let budgets_arg =
    Arg.(
      value
      & opt (list int) Guarded_analysis.Prover.default_budgets
      & info [ "budgets" ] ~docv:"N,.."
          ~doc:
            "Escalating derivation budgets for the bounded-chase termination probe (only \
             consulted when no acyclicity certificate is found).")
  in
  let run theory_path budgets =
    handle_errors (fun () ->
        let sigma = load_theory theory_path in
        let report = Guarded_analysis.Report.analyze ~budgets sigma in
        Fmt.pr "%a@." Guarded_analysis.Report.pp report)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Chase-termination analysis: acyclicity certificates and a bounded-chase probe."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Classifies THEORY in the languages of Figure 1, then decides weak, joint and \
              super-weak acyclicity of its position/existential-variable/trigger graphs. \
              Each decider returns a machine-checkable certificate (a rank function or \
              acyclic numbering) or a concrete cycle counterexample. When no certificate \
              exists and the theory is positive, a bounded restricted chase probes a \
              distinct-constants instance under escalating budgets: saturation yields the \
              finite chase of that instance (atoms, nulls, derivations are reported), \
              exhaustion reports the offending recursive rule cycle. The final \
              $(b,termination:) line carries the verdict.";
         ])
    Term.(const run $ theory_arg $ budgets_arg)

(* --- normalize -------------------------------------------------------- *)

let normalize_cmd =
  let run theory_path =
    handle_errors (fun () ->
        let sigma = load_theory theory_path in
        let norm = Normalize.normalize sigma in
        List.iter (fun r -> Fmt.pr "%a.@." Rule.pp r) (Theory.rules norm))
  in
  Cmd.v
    (Cmd.info "normalize" ~doc:"Normalize a theory (Definition 4 / Proposition 1).")
    Term.(const run $ theory_arg)

(* --- translate -------------------------------------------------------- *)

let budget_arg =
  Arg.(value & opt int 50_000 & info [ "budget" ] ~docv:"N" ~doc:"Rule budget for translations.")

let target_arg =
  Arg.(
    value
    & opt (enum [ ("datalog", `Datalog); ("weakly-guarded", `Weakly_guarded) ]) `Datalog
    & info [ "target" ] ~docv:"LANG" ~doc:"Target language: datalog or weakly-guarded.")

let translate_cmd =
  let run theory_path target budget_n =
    handle_errors (fun () ->
        let sigma = load_theory theory_path in
        let budget =
          {
            Guarded_translate.Pipeline.max_expansion_rules = budget_n;
            max_saturation_rules = budget_n;
            max_ground_rules = budget_n;
          }
        in
        match target with
        | `Datalog -> (
          match Guarded_translate.Pipeline.to_datalog ~budget sigma with
          | tr ->
            Fmt.epr "source language: %s, %d rules@."
              (Classify.language_name tr.Guarded_translate.Pipeline.source_language)
              (Theory.size tr.Guarded_translate.Pipeline.datalog);
            List.iter
              (fun r -> Fmt.pr "%a.@." Rule.pp r)
              (Theory.rules tr.Guarded_translate.Pipeline.datalog)
          | exception Guarded_translate.Pipeline.Not_datalog_expressible l ->
            Fmt.epr
              "this %s theory has ExpTime-complete data complexity and cannot be expressed \
               in Datalog (Section 8); use --target weakly-guarded@."
              (Classify.language_name l);
            exit 4)
        | `Weakly_guarded ->
          let wg = Guarded_translate.Pipeline.to_weakly_guarded ~budget sigma in
          List.iter (fun r -> Fmt.pr "%a.@." Rule.pp r) (Theory.rules wg))
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:"Translate a theory into Datalog (Thms 1+3) or weakly guarded rules (Thm 2).")
    Term.(const run $ theory_arg $ target_arg $ budget_arg)

(* --- chase ------------------------------------------------------------ *)

let chase_cmd =
  let max_derivations =
    Arg.(value & opt int 100_000 & info [ "max-derivations" ] ~docv:"N" ~doc:"Derivation budget.")
  in
  let max_depth =
    Arg.(value & opt (some int) None & info [ "max-depth" ] ~docv:"N" ~doc:"Null-depth bound.")
  in
  let variant =
    Arg.(
      value
      & opt (enum [ ("oblivious", Guarded_chase.Engine.Oblivious); ("restricted", Guarded_chase.Engine.Restricted) ])
          Guarded_chase.Engine.Oblivious
      & info [ "variant" ] ~docv:"V" ~doc:"Chase variant: oblivious (default) or restricted.")
  in
  let show_tree =
    Arg.(value & flag & info [ "tree" ] ~doc:"Print the chase tree of Section 4 (normalizes first).")
  in
  let run theory_path db_path max_derivations max_depth variant show_tree =
    handle_errors (fun () ->
        let sigma = load_theory theory_path in
        let db = load_db db_path in
        Database.materialize_acdom db;
        let limits = { Guarded_chase.Engine.max_derivations; max_depth } in
        if show_tree then begin
          let norm = Normalize.normalize sigma in
          if not (Classify.is_frontier_guarded norm) then
            Fmt.epr "warning: theory is not frontier-guarded; the tree properties of Prop. 2 may fail@.";
          let res = Guarded_chase.Engine.run ~limits ~variant norm db in
          let tree = Guarded_chase.Tree.build norm db res in
          Fmt.pr "%a" Guarded_chase.Tree.pp tree;
          match Guarded_chase.Tree.verify tree norm db with
          | Ok () -> Fmt.epr "Prop. 2 (P1)-(P3): verified@."
          | Error vs -> Fmt.epr "violations: %a@." Fmt.(list ~sep:(any "; ") string) vs
        end
        else begin
          let res =
            if Theory.is_positive sigma then Guarded_chase.Engine.run ~limits ~variant sigma db
            else begin
              let r = Guarded_datalog.Stratified.chase ~limits sigma db in
              {
                Guarded_chase.Engine.db = r.Guarded_datalog.Stratified.db;
                outcome = r.Guarded_datalog.Stratified.outcome;
                derivations = 0;
                steps = [];
              }
            end
          in
          Fmt.epr "%s@."
            (match res.Guarded_chase.Engine.outcome with
            | Guarded_chase.Engine.Saturated -> "saturated"
            | Guarded_chase.Engine.Bounded -> "bounded (result is a sound under-approximation)");
          Fmt.pr "%a@." Database.pp res.Guarded_chase.Engine.db
        end)
  in
  Cmd.v
    (Cmd.info "chase" ~doc:"Chase a database (stratified semantics when negation occurs).")
    Term.(const run $ theory_arg $ db_arg $ max_derivations $ max_depth $ variant $ show_tree)

(* --- answer ------------------------------------------------------------ *)

let query_arg =
  Arg.(required & opt (some string) None & info [ "query" ] ~docv:"REL" ~doc:"Output relation.")

let answer_cmd =
  let magic =
    Arg.(
      value & flag
      & info [ "magic" ]
          ~doc:"Evaluate the translated Datalog program with the magic-set transformation.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Print a proof tree for each answer (via the translated Datalog program).")
  in
  let run theory_path db_path query budget_n use_magic explain =
    handle_errors (fun () ->
        let sigma = load_theory theory_path in
        let db = load_db db_path in
        let budget =
          {
            Guarded_translate.Pipeline.max_expansion_rules = budget_n;
            max_saturation_rules = budget_n;
            max_ground_rules = budget_n;
          }
        in
        if explain then begin
          let tr = Guarded_translate.Pipeline.to_datalog ~budget sigma in
          let d = Database.copy db in
          if Guarded_datalog.Seminaive.mentions_acdom tr.Guarded_translate.Pipeline.datalog then
            Database.materialize_acdom d;
          let prov = Guarded_datalog.Provenance.eval tr.Guarded_translate.Pipeline.datalog d in
          Database.iter
            (fun fact ->
              if String.equal (Atom.rel fact) query then
                match Guarded_datalog.Provenance.explain prov fact with
                | Some proof -> Fmt.pr "%a@." Guarded_datalog.Provenance.pp_proof proof
                | None -> ())
            prov.Guarded_datalog.Provenance.result
        end
        else
        let answers =
          if use_magic then begin
            let tr = Guarded_translate.Pipeline.to_datalog ~budget sigma in
            let program = tr.Guarded_translate.Pipeline.datalog in
            let db = Database.copy db in
            if Guarded_datalog.Seminaive.mentions_acdom program then
              Database.materialize_acdom db;
            Guarded_datalog.Magic.relation_answers program db ~rel:query
          end
          else Guarded_translate.Pipeline.answer ~budget sigma db ~query
        in
        List.iter
          (fun tuple -> Fmt.pr "%s(%a)@." query (Fmt.list ~sep:(Fmt.any ", ") Guarded_core.Term.pp) tuple)
          answers)
  in
  Cmd.v
    (Cmd.info "answer"
       ~doc:"Certain answers of (THEORY, REL) over DATABASE via the translation pipelines.")
    Term.(const run $ theory_arg $ db_arg $ query_arg $ budget_arg $ magic $ explain)

(* --- cq ----------------------------------------------------------------- *)

let cq_cmd =
  let cq_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "cq" ] ~docv:"QUERY" ~doc:"Conjunctive query, e.g. \"r(X, Y) -> q(X).\"")
  in
  let run theory_path db_path cq_text =
    handle_errors (fun () ->
        let sigma = load_theory theory_path in
        let db = load_db db_path in
        let q, _ = Guarded_cq.Cq.of_string cq_text in
        let answers = Guarded_cq.Answer.certain_answers sigma q db in
        List.iter
          (fun tuple -> Fmt.pr "(%a)@." (Fmt.list ~sep:(Fmt.any ", ") Guarded_core.Term.pp) tuple)
          answers)
  in
  Cmd.v
    (Cmd.info "cq" ~doc:"Certain answers of a conjunctive query (Section 7).")
    Term.(const run $ theory_arg $ db_arg $ cq_arg)

(* --- serve / update ------------------------------------------------------ *)

(* The serving path: translate once, materialize, maintain under update
   batches (lib/incr). The translate-or-pass-through decision lives in
   Pipeline.serving_program so the network server shares it. *)
let serving_program budget_n sigma =
  let budget =
    {
      Guarded_translate.Pipeline.max_expansion_rules = budget_n;
      max_saturation_rules = budget_n;
      max_ground_rules = budget_n;
    }
  in
  match Guarded_translate.Pipeline.serving_program ~budget sigma with
  | served ->
    Fmt.epr "program: %s@." served.Guarded_translate.Pipeline.served_note;
    served.Guarded_translate.Pipeline.served_program
  | exception Guarded_translate.Pipeline.Not_datalog_expressible l ->
    Fmt.epr
      "this %s theory has no Datalog rewriting (Section 8) and cannot be served \
       incrementally@."
      (Classify.language_name l);
    exit 4

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains for the parallel maintenance rounds (1 = sequential).")

let make_pool n = if n <= 1 then None else Some (Guarded_par.Pool.create ~domains:n ())

let timed f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

let print_tuples rel tuples =
  List.iter
    (fun tuple ->
      Fmt.pr "%s(%a)@." rel (Fmt.list ~sep:(Fmt.any ", ") Guarded_core.Term.pp) tuple)
    tuples

let print_apply_result (res : Guarded_incr.Incr.apply_result) dt =
  Fmt.pr "applied: +%d -%d facts%s (%.3f ms)@." res.Guarded_incr.Incr.res_added
    res.Guarded_incr.Incr.res_removed
    (if res.Guarded_incr.Incr.res_fallback_strata > 0 then
       Fmt.str " [%d strata recomputed]" res.Guarded_incr.Incr.res_fallback_strata
     else "")
    (dt *. 1000.)

(* One query line of the serve REPL: "? REL" prints the relation's
   tuples; "? body -> q(X)." answers a CQ (";"-separated disjuncts form
   a UCQ) directly against the materialization. *)
let serve_query m text =
  let text = String.trim text in
  if String.contains text '>' then begin
    let ucq, _ = Guarded_cq.Ucq.of_string text in
    let tuples =
      List.concat_map
        (fun (q : Guarded_cq.Cq.t) ->
          Guarded_incr.Incr.cq_answers m ~body:q.Guarded_cq.Cq.body
            ~answer_vars:q.Guarded_cq.Cq.answer_vars)
        ucq.Guarded_cq.Ucq.disjuncts
    in
    let tuples = List.sort_uniq (List.compare Guarded_core.Term.compare) tuples in
    List.iter
      (fun tuple -> Fmt.pr "(%a)@." (Fmt.list ~sep:(Fmt.any ", ") Guarded_core.Term.pp) tuple)
      tuples
  end
  else print_tuples text (Guarded_incr.Incr.answers m ~query:text)

let serve_cmd =
  let run theory_path db_path budget_n domains =
    handle_errors (fun () ->
        let sigma = load_theory theory_path in
        let db = load_db db_path in
        let program = serving_program budget_n sigma in
        let pool = make_pool domains in
        let m, dt = timed (fun () -> Guarded_incr.Incr.materialize ?pool program db) in
        Fmt.epr "materialized: %d facts from %d EDB facts (%.3f ms)@."
          (Database.cardinal (Guarded_incr.Incr.db m))
          (Database.cardinal (Guarded_incr.Incr.edb m))
          (dt *. 1000.);
        Fmt.epr "commands: +fact.  -fact.  commit  ? REL  ? body -> q(X).  quit@.";
        let pending = ref Guarded_incr.Delta.empty in
        let quit = ref false in
        while not !quit do
          match In_channel.input_line stdin with
          | None -> quit := true
          | Some line -> (
            let line = String.trim line in
            try
              if line = "quit" || line = "exit" then quit := true
              else if line = "commit" then begin
                let delta = !pending in
                pending := Guarded_incr.Delta.empty;
                let res, dt = timed (fun () -> Guarded_incr.Incr.apply m delta) in
                print_apply_result res dt
              end
              else if line <> "" && line.[0] = '?' then
                serve_query m (String.sub line 1 (String.length line - 1))
              else
                match Guarded_incr.Delta.parse_line line with
                | Some a, _ -> pending := Guarded_incr.Delta.add_fact !pending a
                | _, Some a -> pending := Guarded_incr.Delta.remove_fact !pending a
                | None, None -> ()
            with
            | Failure msg | Invalid_argument msg -> Fmt.epr "error: %s@." msg
            | Parser.Parse_error msg -> Fmt.epr "parse error: %s@." msg)
        done)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Materialize the translated program over DATABASE and serve queries under updates \
          (interactive)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Translates THEORY to Datalog once (Thms. 1/5 — the rewriting is \
              database-independent), materializes it over DATABASE, then reads commands from \
              standard input: $(b,+fact.) and $(b,-fact.) stage insertions and deletions, \
              $(b,commit) applies the staged batch incrementally (delete/rederive on every \
              stratum) and prints net changes with timing, \
              $(b,? REL) prints a relation's tuples, $(b,? body -> q(X).) answers a \
              conjunctive query ($(b,;)-separated disjuncts form a union), and $(b,quit) \
              exits.";
         ])
    Term.(const run $ theory_arg $ db_arg $ budget_arg $ domains_arg)

let update_cmd =
  let updates_arg =
    Arg.(
      value
      & pos 2 (some file) None
      & info [] ~docv:"UPDATES"
          ~doc:"Update file: +fact./-fact. lines; blank lines separate batches. Defaults to \
                standard input.")
  in
  let query_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "query" ] ~docv:"REL" ~doc:"Print this relation's tuples after the last batch.")
  in
  let run theory_path db_path updates_path query budget_n domains =
    handle_errors (fun () ->
        let sigma = load_theory theory_path in
        let db = load_db db_path in
        let program = serving_program budget_n sigma in
        let pool = make_pool domains in
        let m, dt = timed (fun () -> Guarded_incr.Incr.materialize ?pool program db) in
        Fmt.epr "materialized: %d facts (%.3f ms)@."
          (Database.cardinal (Guarded_incr.Incr.db m))
          (dt *. 1000.);
        let text =
          match updates_path with
          | Some path -> read_file path
          | None -> In_channel.input_all stdin
        in
        (* The whole file is validated before anything is applied: a
           malformed line rejects the submission as a unit with its
           line number, never aborting between batches. *)
        let batches =
          match Guarded_incr.Delta.batches_of_string text with
          | batches -> batches
          | exception Guarded_incr.Delta.Malformed { line; msg } ->
            Fmt.epr "%s, line %d: %s@."
              (match updates_path with Some p -> p | None -> "<stdin>")
              line msg;
            Fmt.epr "no batch applied@.";
            exit 2
        in
        List.iteri
          (fun i delta ->
            let res, dt = timed (fun () -> Guarded_incr.Incr.apply m delta) in
            Fmt.pr "batch %d (%d ops): " (i + 1) (Guarded_incr.Delta.size delta);
            print_apply_result res dt)
          batches;
        match query with
        | None -> ()
        | Some rel -> print_tuples rel (Guarded_incr.Incr.answers m ~query:rel))
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Apply blank-line-separated update batches to a served materialization, with \
             per-batch timing."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Materializes THEORY over DATABASE like $(b,guarded serve), then applies the \
              batches of UPDATES (or standard input): one $(b,+fact.) or $(b,-fact.) per \
              line, blank lines between batches, $(b,#)/$(b,%) comments ignored. Each batch \
              reports its net fact changes and wall-clock time; $(b,--query) prints a \
              relation after the final batch.";
         ])
    Term.(
      const run $ theory_arg $ db_arg $ updates_arg $ query_opt_arg $ budget_arg $ domains_arg)

(* --- listen / client ----------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Serve on (connect to) a Unix-domain socket.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"TCP host.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Serve on (connect to) TCP HOST:PORT.")

let resolve_address socket host port =
  match (socket, port) with
  | Some path, _ -> Guarded_server.Server.Unix_socket path
  | None, Some p -> Guarded_server.Server.Tcp (host, p)
  | None, None ->
    Fmt.epr "error: give --socket PATH or --port PORT@.";
    exit 2

let listen_cmd =
  let db_opt_arg =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"DATABASE"
          ~doc:"Database file. Optional when --snapshot names an existing snapshot.")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Snapshot file: loaded for a warm start when it exists, written on shutdown and \
             on the SNAPSHOT command.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Commit queue bound; full queues block submitters (backpressure).")
  in
  let demand_arg =
    Arg.(
      value & flag
      & info [ "demand" ]
          ~doc:
            "Demand-driven serving: skip the up-front materialization and answer each query \
             by magic-set evaluation over the raw EDB, memoized in a subgoal cache that \
             commits invalidate per dependency component. Incompatible with --snapshot \
             (nothing is materialized to persist).")
  in
  let chase_arg =
    Arg.(
      value & flag
      & info [ "chase" ]
          ~doc:
            "Finite-chase serving: materialize the restricted chase of THEORY over DATABASE \
             and answer queries from it directly, bypassing the Datalog translation. Labeled \
             nulls stay resident and are filtered from answers. Commits of pure additions \
             continue the chase incrementally; deletions re-chase the new EDB. Only sound \
             for terminating theories — check with $(b,guarded analyze) first; a chase that \
             exceeds $(b,--chase-budget) refuses the batch (or startup). Incompatible with \
             --demand, --snapshot and --follow.")
  in
  let chase_budget_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "chase-budget" ] ~docv:"N"
          ~doc:"With --chase: derivation budget per chase run before a batch is refused.")
  in
  let follow_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"ADDR"
          ~doc:
            "Serve as a read replica of the primary at ADDR (unix:PATH, tcp:HOST:PORT, \
             HOST:PORT or a socket path): bootstrap from its wire snapshot (or, with a \
             DATABASE, materialize locally and resume from its journal), replay its commit \
             stream, refuse writes with a redirect. Incompatible with --demand and \
             --snapshot.")
  in
  let auto_promote_arg =
    Arg.(
      value & flag
      & info [ "auto-promote" ]
          ~doc:
            "With --follow: when the primary stays unreachable past the reconnect budget, \
             promote this replica into a writable primary instead of stopping the stream.")
  in
  let run_replica ~primary ~auto_promote ?pool ~queue_capacity ~program ~db_path addr =
    let policy = { Guarded_repl.Failover.default_policy with auto_promote } in
    let local = Option.map (fun p -> (program, load_db p)) db_path in
    match
      Guarded_repl.Replica.start ?pool ~log:(Fmt.epr "%s@.") ~queue_capacity ~policy
        ?local ~primary addr
    with
    | Error msg ->
      Fmt.epr "error: %s@." msg;
      exit 1
    | Ok replica ->
      let served = Guarded_server.State.program (Guarded_repl.Replica.state replica) in
      if not (Guarded_server.Snapshot.theory_equal program served) then begin
        Fmt.epr "error: the primary serves a different program than THEORY@.";
        Guarded_repl.Replica.stop replica;
        exit 2
      end;
      let stop_requested = ref false in
      let request_stop _ = stop_requested := true in
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      while not !stop_requested do
        Thread.delay 0.1
      done;
      Guarded_repl.Replica.stop replica
  in
  let run theory_path db_path socket host port snapshot queue_capacity budget_n domains demand
      chase chase_budget follow auto_promote =
    handle_errors (fun () ->
        let sigma = load_theory theory_path in
        let addr = resolve_address socket host port in
        (* Chase mode serves the existential theory itself — no Datalog
           translation is computed (or even required to exist). *)
        let program = lazy (serving_program budget_n sigma) in
        let pool = make_pool domains in
        if demand && snapshot <> None then begin
          Fmt.epr "error: --demand and --snapshot are incompatible@.";
          exit 2
        end;
        if chase && (demand || snapshot <> None || follow <> None) then begin
          Fmt.epr "error: --chase is incompatible with --demand, --snapshot and --follow@.";
          exit 2
        end;
        match follow with
        | Some primary_s -> (
          if demand || snapshot <> None then begin
            Fmt.epr "error: --follow is incompatible with --demand and --snapshot@.";
            exit 2
          end;
          match Guarded_server.Server.address_of_string primary_s with
          | Error msg ->
            Fmt.epr "error: --follow: %s@." msg;
            exit 2
          | Ok primary ->
            run_replica ~primary ~auto_promote ?pool ~queue_capacity
              ~program:(Lazy.force program) ~db_path addr)
        | None ->
        let state =
          if chase then begin
            match db_path with
            | None ->
              Fmt.epr "error: --chase needs a DATABASE@.";
              exit 2
            | Some path -> (
              let db = load_db path in
              let limits =
                { Guarded_chase.Engine.default_limits with max_derivations = chase_budget }
              in
              match Guarded_server.State.create_chase ?pool ~limits ~queue_capacity sigma db with
              | state ->
                let s = Guarded_server.State.stats state in
                Fmt.epr "chase mode: serving %d chase facts (%d nulls, %d derivations) from \
                         %d EDB facts@."
                  s.Guarded_server.Wire.s_facts s.Guarded_server.Wire.s_chase_nulls
                  s.Guarded_server.Wire.s_chase_derivations s.Guarded_server.Wire.s_edb_facts;
                state
              | exception Guarded_incr.Chase_mat.Nonterminating { budget; derivations } ->
                Fmt.epr
                  "error: the chase exceeded %d derivations (budget %d); this theory may \
                   not terminate on this database — check with `guarded analyze`, or raise \
                   --chase-budget@."
                  derivations budget;
                exit 3)
          end
          else if demand then begin
            match db_path with
            | None ->
              Fmt.epr "error: --demand needs a DATABASE@.";
              exit 2
            | Some path ->
              let db = load_db path in
              Fmt.epr "demand-driven: serving %d EDB facts, nothing materialized@."
                (Database.cardinal db);
              Guarded_server.State.create_demand ?pool ~queue_capacity (Lazy.force program) db
          end
          else
          match snapshot with
          | Some path when Sys.file_exists path -> (
            match Guarded_server.Snapshot.load_for ?pool path (Lazy.force program) with
            | m ->
              Fmt.epr "warm start: %d facts restored from %s@."
                (Database.cardinal (Guarded_incr.Incr.db m))
                path;
              Guarded_server.State.of_materialization ~queue_capacity m
            | exception Guarded_server.Snapshot.Corrupt msg ->
              Fmt.epr "snapshot rejected: %s@." msg;
              exit 2)
          | _ -> (
            match db_path with
            | None ->
              Fmt.epr "error: no DATABASE and no existing snapshot to start from@.";
              exit 2
            | Some path ->
              let db = load_db path in
              let m, dt =
                timed (fun () -> Guarded_incr.Incr.materialize ?pool (Lazy.force program) db)
              in
              Fmt.epr "materialized: %d facts from %d EDB facts (%.3f ms)@."
                (Database.cardinal (Guarded_incr.Incr.db m))
                (Database.cardinal (Guarded_incr.Incr.edb m))
                (dt *. 1000.);
              Guarded_server.State.of_materialization ~queue_capacity m)
        in
        let srv =
          Guarded_server.Server.listen ?snapshot ~log:(Fmt.epr "%s@.") state addr
        in
        let stop_requested = ref false in
        let request_stop _ = stop_requested := true in
        Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
        while not !stop_requested do
          Thread.delay 0.1
        done;
        Guarded_server.Server.stop srv)
  in
  Cmd.v
    (Cmd.info "listen"
       ~doc:"Serve the translated materialization to network clients."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Translates THEORY once, materializes it over DATABASE (or restores a \
              $(b,--snapshot) for a warm start without re-running any fixpoint) and serves \
              the wire protocol on a Unix socket or TCP port: one event-loop thread for \
              every connection answers reads from the last committed epoch, and a single \
              writer thread applies update batches incrementally. With $(b,--demand), \
              nothing is materialized: queries evaluate their own subgoals on demand and \
              cache them. With \
              $(b,--chase), the restricted chase of THEORY itself is materialized and \
              served directly — no Datalog translation — which requires a terminating \
              chase (see $(b,guarded analyze)). With \
              $(b,--follow), this node serves as a read replica of another $(b,listen) \
              process: it bootstraps from the primary's snapshot or journal, replays its \
              commit stream and answers writes with a redirect; the $(b,PROMOTE) wire verb \
              (or $(b,--auto-promote) after a lost primary) flips it into a writable \
              primary. SIGINT/SIGTERM shut down gracefully, saving the snapshot when one \
              is configured.";
         ])
    Term.(
      const run $ theory_arg $ db_opt_arg $ socket_arg $ host_arg $ port_arg $ snapshot_arg
      $ queue_arg $ budget_arg $ domains_arg $ demand_arg $ chase_arg $ chase_budget_arg
      $ follow_arg $ auto_promote_arg)

(* [--hammer N]: N concurrent light clients, a handful of STATS round
   trips each — the smoke-scale version of the serve bench's sweep,
   used by CI to prove the reactor holds 1000+ connections. *)
let run_hammer addr n =
  ignore (Guarded_server.Evloop.raise_fd_limit (n + 512));
  let requests = 5 in
  let lat = Array.make (n * requests) 0. in
  let fail_mutex = Mutex.create () in
  let failures = ref 0 in
  let client k () =
    match Guarded_server.Client.connect addr with
    | exception _ ->
      Mutex.lock fail_mutex;
      failures := !failures + requests;
      Mutex.unlock fail_mutex
    | c ->
      Fun.protect
        ~finally:(fun () -> Guarded_server.Client.close c)
        (fun () ->
          for i = 0 to requests - 1 do
            let t0 = Unix.gettimeofday () in
            match Guarded_server.Client.request c Guarded_server.Wire.Stats with
            | Guarded_server.Wire.Stats_reply _ ->
              lat.((k * requests) + i) <- Unix.gettimeofday () -. t0
            | _ | (exception _) ->
              Mutex.lock fail_mutex;
              incr failures;
              Mutex.unlock fail_mutex
          done)
  in
  let threads = List.init n (fun k -> Thread.create (client k) ()) in
  List.iter Thread.join threads;
  Array.sort Float.compare lat;
  let pct p =
    let valid = Array.length lat - !failures in
    if valid <= 0 then 0.
    else lat.(Array.length lat - valid + min (valid - 1) (int_of_float (p *. float_of_int valid)))
  in
  Fmt.pr "hammer: %d clients x %d requests, %d failures, p50 %.0f µs, p95 %.0f µs@." n requests
    !failures
    (pct 0.50 *. 1e6)
    (pct 0.95 *. 1e6);
  if !failures > 0 then exit 1

let client_cmd =
  let exec_arg =
    Arg.(
      value & opt_all string []
      & info [ "e"; "exec" ] ~docv:"CMD"
          ~doc:"Protocol command to send (repeatable); without it, read commands from \
                standard input.")
  in
  let hammer_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "hammer" ] ~docv:"N"
          ~doc:
            "Open N concurrent connections, send a few STATS round trips on each, report \
             latency percentiles and exit — a load-smoke against a running server.")
  in
  let replica_arg =
    Arg.(
      value & opt_all string []
      & info [ "replica" ] ~docv:"ADDR"
          ~doc:
            "A read replica's address (repeatable; unix:PATH, tcp:HOST:PORT, HOST:PORT or \
             a socket path). Reads round-robin across the replicas and the primary; writes \
             go to the primary, following redirects and probing for a promoted successor \
             when it dies.")
  in
  let run socket host port cmds hammer replicas =
    handle_errors (fun () ->
        let addr = resolve_address socket host port in
        match hammer with
        | Some n -> run_hammer addr n
        | None ->
        let replica_addrs =
          List.map
            (fun s ->
              match Guarded_server.Server.address_of_string s with
              | Ok a -> a
              | Error msg ->
                Fmt.epr "error: --replica: %s@." msg;
                exit 2)
            replicas
        in
        let is_read : Guarded_server.Wire.request -> bool = function
          | Query _ | Cq _ | Stats | Role -> true
          | Add _ | Remove _ | Load _ | Commit | Snapshot _ | Follow _ | Promote | Quit ->
            false
        in
        let route =
          if replica_addrs = [] then begin
            let c =
              try Guarded_server.Client.connect addr
              with Unix.Unix_error (e, _, _) ->
                Fmt.epr "connect failed: %s@." (Unix.error_message e);
                exit 1
            in
            `Single c
          end
          else `Cluster (Guarded_repl.Cluster.make (addr :: replica_addrs))
        in
        let request req =
          match route with
          | `Single c -> Guarded_server.Client.request c req
          | `Cluster cl ->
            if is_read req then Guarded_repl.Cluster.read cl req
            else Guarded_repl.Cluster.write cl req
        in
        let failures = ref 0 in
        let send line =
          let line = String.trim line in
          if line <> "" && line.[0] <> '#' && line.[0] <> '%' then begin
            let resp =
              match Guarded_server.Wire.parse_request line with
              | Error msg -> Guarded_server.Wire.Failed msg
              | Ok req -> request req
            in
            (match resp with Guarded_server.Wire.Failed _ -> incr failures | _ -> ());
            Fmt.pr "%s@." (Guarded_server.Wire.print_response resp)
          end
        in
        let close () =
          match route with
          | `Single c -> Guarded_server.Client.close c
          | `Cluster cl -> Guarded_repl.Cluster.close cl
        in
        (try
           if cmds <> [] then List.iter send cmds
           else
             let quit = ref false in
             while not !quit do
               match In_channel.input_line stdin with
               | None -> quit := true
               | Some line ->
                 let t = String.lowercase_ascii (String.trim line) in
                 if t = "quit" || t = "exit" then quit := true else send line
             done
         with
        | Guarded_server.Wire.Protocol_error msg ->
          Fmt.epr "protocol error: %s@." msg;
          close ();
          exit 1
        | Guarded_server.Client.Connection_lost msg ->
          Fmt.epr "connection lost: %s@." msg;
          close ();
          exit 1);
        close ();
        if !failures > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send protocol commands to a running guarded listen server."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Connects to $(b,--socket) or $(b,--host)/$(b,--port) and sends each $(b,-e) \
              command (or each standard-input line) as one request, printing the reply. \
              Exits nonzero when any reply is an ERROR. With $(b,--hammer N), instead opens \
              N concurrent connections and reports round-trip latency percentiles. With \
              $(b,--replica) endpoints, reads round-robin across the cluster and writes \
              chase the primary through redirects and failovers.";
         ])
    Term.(const run $ socket_arg $ host_arg $ port_arg $ exec_arg $ hammer_arg $ replica_arg)

let load_wire_cmd =
  let db_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DATABASE" ~doc:"Fact file to ingest into the server's EDB.")
  in
  let text_flag =
    Arg.(
      value & flag
      & info [ "text" ]
          ~doc:"Stage one pipelined +fact. frame per fact instead of binary LOAD blocks — \
                the slow path, kept for comparison.")
  in
  let chunk_arg =
    Arg.(value & opt int 8192 & info [ "chunk" ] ~docv:"N" ~doc:"Facts per LOAD frame.")
  in
  let no_commit_flag =
    Arg.(value & flag & info [ "no-commit" ] ~doc:"Stage only; skip the final COMMIT.")
  in
  let run db_path socket host port text chunk no_commit =
    handle_errors (fun () ->
        let facts = Database.to_list (load_db db_path) in
        let n = List.length facts in
        let addr = resolve_address socket host port in
        let c =
          try Guarded_server.Client.connect addr
          with Unix.Unix_error (e, _, _) ->
            Fmt.epr "connect failed: %s@." (Unix.error_message e);
            exit 1
        in
        Fun.protect
          ~finally:(fun () -> Guarded_server.Client.close c)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            (if text then begin
               let bad =
                 List.exists
                   (function Guarded_server.Wire.Failed _ -> true | _ -> false)
                   (Guarded_server.Client.pipeline c
                      (List.map (fun a -> Guarded_server.Wire.Add a) facts))
               in
               if bad then begin
                 Fmt.epr "staging failed@.";
                 exit 1
               end
             end
             else
               match Guarded_server.Client.load ~chunk c facts with
               | Ok m when m = n -> ()
               | Ok m ->
                 Fmt.epr "staged %d of %d facts@." m n;
                 exit 1
               | Error msg ->
                 Fmt.epr "load failed: %s@." msg;
                 exit 1);
            let dt = Unix.gettimeofday () -. t0 in
            Fmt.pr "staged %d facts in %.3f s (%.0f facts/s, %s)@." n dt
              (float_of_int n /. Float.max dt 1e-9)
              (if text then "text" else "binary");
            if not no_commit then begin
              let t1 = Unix.gettimeofday () in
              match Guarded_server.Client.request c Guarded_server.Wire.Commit with
              | Guarded_server.Wire.Committed { added; removed; epoch } ->
                Fmt.pr "committed: +%d -%d @%d in %.3f s@." added removed epoch
                  (Unix.gettimeofday () -. t1)
              | Guarded_server.Wire.Failed msg ->
                Fmt.epr "commit failed: %s@." msg;
                exit 1
              | _ ->
                Fmt.epr "protocol error: expected COMMITTED@.";
                exit 1
            end))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Bulk-ingest a fact file into a running guarded listen server."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Parses DATABASE locally, ships its facts to the server as length-prefixed \
              binary $(b,LOAD) frames (bypassing per-line text parsing on both sides), and \
              commits the staged batch. $(b,--text) uses pipelined $(b,+fact.) frames \
              instead, which is the baseline the serve benchmark compares against.";
         ])
    Term.(
      const run $ db_pos $ socket_arg $ host_arg $ port_arg $ text_flag $ chunk_arg
      $ no_commit_flag)

let () =
  let doc = "guarded existential rule languages (PODS 2014) — translations and query answering" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "guarded" ~version:"1.0.0" ~doc)
          [
            classify_cmd;
            analyze_cmd;
            normalize_cmd;
            translate_cmd;
            chase_cmd;
            answer_cmd;
            cq_cmd;
            serve_cmd;
            update_cmd;
            listen_cmd;
            client_cmd;
            load_wire_cmd;
          ]))
