(** Incremental maintenance of materialized stratified Datalog.

    State layout. The program's strata — {!Stratify.strata} refined by
    {!Depgraph.rule_components}, so each stratum is one dependency
    component of a negation stratum — each cache an output database
    [st_out] holding the input of the stratum plus everything its rules
    derive; the input [st_in] is a
    shared reference to the previous stratum's [st_out] (the base
    EDB+ACDom database for the first stratum), so by the time stratum
    [i] processes a batch its input has already been updated in place
    and membership tests against [st_in] see the new input. The last
    stratum's output is the served materialization.

    Maintenance. Every stratum is maintained the same way, by DRed
    (delete/rederive). Insertions are a semi-naive delta cascade
    ({!Seminaive.delta_insert}). Deletions overdelete everything
    reachable from the deleted facts (skipping facts still present in
    [st_in]), then rederive: overdeleted facts one-step derivable from
    the surviving database ({!Provenance.derivable_one_step}) re-enter
    as seeds of an insertion cascade, which restores everything else
    that was still derivable. Both steps stop at the first witness of a
    fact; nothing enumerates all of a fact's derivations. The programs
    this serves are subsumption-reduced by the translation
    ([Saturate.dat] in lib/translate), which keeps the dependency
    components small and mostly nonrecursive, so an overdeletion
    stays local.

    Fallback. Negation is semipositive within a stratum, so DRed
    assumes the relations a stratum negates are unchanged. When a
    batch's input delta touches a negated relation the stratum is
    recomputed from scratch over the new input and the diff becomes
    its output delta.

    ACDom. When the program mentions the built-in active-domain
    relation, the base database holds ACDom(t) for every term of a
    non-ACDom EDB fact (mirroring {!Database.materialize_acdom} on the
    EDB, which is what from-scratch evaluation does) plus any explicit
    ACDom facts of the EDB. Per-term occurrence counts keep that set
    exact under updates, and ACDom changes propagate as ordinary
    stratum-0 input deltas. *)

open Guarded_core
open Guarded_datalog

type stratum = {
  st_theory : Theory.t;
  st_engine : Seminaive.engine;
  st_join : Planner.join_mode;  (** executor choice, for recomputation *)
  st_negated : Theory.Rel_set.t;  (** relations negated in this stratum *)
  st_in : Database.t;  (** shared with the previous stratum's [st_out] *)
  st_out : Database.t;
}

type t = {
  program : Theory.t;
  edb : Database.t;  (** raw EDB, updates applied *)
  base : Database.t;  (** EDB ∪ ACDom — the first stratum's input *)
  acdom : bool;
  acdom_counts : (int, int) Hashtbl.t;
      (** term id -> number of non-ACDom EDB facts containing the term *)
  acdom_explicit : unit Atom.Tbl.t;  (** ACDom facts of the raw EDB *)
  strata : stratum array;
  pool : Guarded_par.Pool.t option;
}

let program t = t.program
let pool t = t.pool
let edb t = t.edb
let db t = if Array.length t.strata = 0 then t.base else t.strata.(Array.length t.strata - 1).st_out

(* ------------------------------------------------------------------ *)
(* Net output-delta accumulator: a fact removed and later re-added in
   the same batch (rederived, or re-inserted after a cascade) cancels
   out, so downstream strata only see genuine changes. *)

type acc = { acc_added : unit Atom.Tbl.t; acc_removed : unit Atom.Tbl.t }

let acc_create () = { acc_added = Atom.Tbl.create 64; acc_removed = Atom.Tbl.create 64 }

let acc_add acc f =
  if Atom.Tbl.mem acc.acc_removed f then Atom.Tbl.remove acc.acc_removed f
  else Atom.Tbl.replace acc.acc_added f ()

let acc_remove acc f =
  if Atom.Tbl.mem acc.acc_added f then Atom.Tbl.remove acc.acc_added f
  else Atom.Tbl.replace acc.acc_removed f ()

let acc_added acc = Atom.Tbl.fold (fun f () l -> f :: l) acc.acc_added []
let acc_removed acc = Atom.Tbl.fold (fun f () l -> f :: l) acc.acc_removed []

(* Mutations of a stratum's output funnel through these so the
   accumulator stays in sync with the physical database. *)
let out_add st acc f = if Database.add st.st_out f then acc_add acc f
let out_remove st acc f = if Database.remove st.st_out f then acc_remove acc f

(* ------------------------------------------------------------------ *)
(* Delete/rederive                                                     *)

(* Overdelete everything reachable from the deleted inputs (facts still
   present in the updated [st_in] are exempt — their support is given),
   then rederive: overdeleted facts with a surviving one-step
   derivation seed a semi-naive insertion cascade that restores every
   fact still derivable. The cascade can only re-add overdeleted facts:
   the database was closed under the rules before the batch, so
   everything derivable from surviving facts was already present.
   Each overdeletion round collects the heads of the instances that use
   a frontier fact; a head reached by several instances lands once in
   the deduplicating [next] database. *)
let dred_delete ?pool st acc removed_inputs =
  let overdeleted = ref [] in
  let frontier = Database.create () in
  List.iter
    (fun f -> if Database.mem st.st_out f then ignore (Database.add frontier f))
    removed_inputs;
  let current = ref frontier in
  while Database.cardinal !current > 0 do
    let frontier = !current in
    let next = Database.create () in
    Seminaive.iter_seeded_heads ?pool st.st_engine ~seed:frontier ~db:st.st_out (fun h ->
        if
          Database.mem st.st_out h
          && (not (Database.mem frontier h))
          && not (Database.mem st.st_in h)
        then ignore (Database.add next h));
    Database.iter
      (fun f ->
        out_remove st acc f;
        overdeleted := f :: !overdeleted)
      frontier;
    current := next
  done;
  let seeds =
    List.filter (fun d -> Provenance.derivable_one_step st.st_theory st.st_out d) !overdeleted
  in
  let readded = Seminaive.delta_insert ?pool st.st_engine st.st_out seeds in
  List.iter (fun f -> acc_add acc f) readded

let dred_insert ?pool st acc added_inputs =
  let added = Seminaive.delta_insert ?pool st.st_engine st.st_out added_inputs in
  List.iter (fun f -> acc_add acc f) added

(* ------------------------------------------------------------------ *)
(* Fallback: the batch changed a relation this stratum negates, so the
   incremental strategies (which treat negative literals as static) do
   not apply. Recompute the stratum over its updated input and emit the
   diff. *)

let fallback_recompute ?pool st acc =
  let fresh = Seminaive.eval ~acdom:false ?pool ~join:st.st_join st.st_theory st.st_in in
  let stale =
    Database.fold (fun f l -> if Database.mem fresh f then l else f :: l) st.st_out []
  in
  let news =
    Database.fold (fun f l -> if Database.mem st.st_out f then l else f :: l) fresh []
  in
  List.iter (fun f -> out_remove st acc f) stale;
  List.iter (fun f -> out_add st acc f) news

let touches_negated st facts =
  List.exists (fun f -> Theory.Rel_set.mem (Atom.rel_key f) st.st_negated) facts

(* Process one stratum's input delta (already applied to [st_in]);
   returns whether the fallback path ran. The output delta lands in
   [acc]. *)
let process_stratum ?pool st acc ~ins ~del =
  if touches_negated st ins || touches_negated st del then begin
    fallback_recompute ?pool st acc;
    true
  end
  else begin
    if del <> [] then dred_delete ?pool st acc del;
    if ins <> [] then dred_insert ?pool st acc ins;
    false
  end

(* ------------------------------------------------------------------ *)
(* ACDom maintenance                                                   *)

let acdom_key = (Database.acdom_rel, 0, 1)
let is_acdom_fact f = Atom.rel_key f = acdom_key

let term_count t tm = match Hashtbl.find_opt t.acdom_counts (Term.id tm) with None -> 0 | Some n -> n

let adjust_term_count t tm d =
  let n = term_count t tm + d in
  if n = 0 then Hashtbl.remove t.acdom_counts (Term.id tm)
  else Hashtbl.replace t.acdom_counts (Term.id tm) n;
  n

(* Base-level delta of one EDB change set: non-ACDom facts pass
   through, ACDom membership changes are derived from the per-term
   occurrence counts and the explicit-fact set. Deletions are processed
   before additions; a term that loses and regains support emits a
   remove/add pair that the caller's accumulator cancels. *)
let base_deltas t ~eff_ins ~eff_del =
  if not t.acdom then (eff_ins, eff_del)
  else begin
    let ins = ref [] and del = ref [] in
    List.iter
      (fun f ->
        if is_acdom_fact f then begin
          Atom.Tbl.remove t.acdom_explicit f;
          match Atom.args f with
          | [ tm ] -> if term_count t tm = 0 then del := f :: !del
          | _ -> ()
        end
        else begin
          del := f :: !del;
          Term.Set.iter
            (fun tm ->
              if adjust_term_count t tm (-1) = 0 then begin
                let af = Atom.make Database.acdom_rel [ tm ] in
                if not (Atom.Tbl.mem t.acdom_explicit af) then del := af :: !del
              end)
            (Atom.term_set f)
        end)
      eff_del;
    List.iter
      (fun f ->
        if is_acdom_fact f then begin
          Atom.Tbl.replace t.acdom_explicit f ();
          ins := f :: !ins
        end
        else begin
          ins := f :: !ins;
          Term.Set.iter
            (fun tm ->
              if adjust_term_count t tm 1 = 1 then
                ins := Atom.make Database.acdom_rel [ tm ] :: !ins)
            (Atom.term_set f)
        end)
      eff_ins;
    (List.rev !ins, List.rev !del)
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let negated_relations (sigma : Theory.t) =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc a -> Theory.Rel_set.add (Atom.rel_key a) acc)
        acc (Rule.neg_body_atoms r))
    Theory.Rel_set.empty (Theory.rules sigma)

(* Refine each negation stratum into dependency components so an
   overdeletion (and the negation fallback) pays only for the
   component the batch actually reaches. The concatenation is still
   dependencies-first, so each stratum's input is the previous one's
   output. *)
let stratum_theories sigma = Stratify.strata sigma |> List.concat_map Depgraph.rule_components

let make_stratum ~join th ~st_in ~st_out =
  {
    st_theory = th;
    st_engine = Seminaive.engine ~join th;
    st_join = join;
    st_negated = negated_relations th;
    st_in;
    st_out;
  }

let build_strata ?pool ?(join = `Auto) (sigma : Theory.t) (base : Database.t) =
  let prev = ref base in
  stratum_theories sigma
  |> List.map (fun th ->
         let st_in = !prev in
         let st_out = Seminaive.eval ~acdom:false ?pool ~join th st_in in
         prev := st_out;
         make_stratum ~join th ~st_in ~st_out)
  |> Array.of_list

(* The EDB-derived parts of the state — the base database and the
   ACDom bookkeeping — shared by [materialize] and [restore]. *)
let make_shell ?pool (sigma : Theory.t) (db0 : Database.t) =
  Seminaive.check_datalog sigma;
  if not (Stratify.is_stratified sigma) then
    invalid_arg "Incr.materialize: program is not stratified";
  let edb = Database.copy db0 in
  let acdom = Seminaive.mentions_acdom sigma in
  let acdom_counts = Hashtbl.create 256 in
  let acdom_explicit = Atom.Tbl.create 16 in
  let base = Database.copy edb in
  if acdom then begin
    Database.iter
      (fun f ->
        if is_acdom_fact f then Atom.Tbl.replace acdom_explicit f ()
        else
          Term.Set.iter
            (fun tm ->
              Hashtbl.replace acdom_counts (Term.id tm)
                (1 + Option.value ~default:0 (Hashtbl.find_opt acdom_counts (Term.id tm))))
            (Atom.term_set f))
      edb;
    Database.materialize_acdom base
  end;
  {
    program = sigma;
    edb;
    base;
    acdom;
    acdom_counts;
    acdom_explicit;
    strata = [||];
    pool;
  }

let materialize ?pool ?join (sigma : Theory.t) (db0 : Database.t) =
  let t = make_shell ?pool sigma db0 in
  { t with strata = build_strata ?pool ?join sigma t.base }

(* ------------------------------------------------------------------ *)
(* Snapshot support: the cached state as plain data                    *)

type stratum_dump = { sd_new : Atom.t list  (** output facts beyond the stratum's input *) }

type dump = {
  d_edb : Database.t;
  d_strata : stratum_dump list;
}

let dump t =
  let strata =
    Array.to_list t.strata
    |> List.map (fun st ->
           let sd_new =
             Database.fold
               (fun f l -> if Database.mem st.st_in f then l else f :: l)
               st.st_out []
             |> List.sort Atom.compare
           in
           { sd_new })
  in
  { d_edb = Database.copy t.edb; d_strata = strata }

(* Rebuild a materialization from dumped state without re-running any
   fixpoint: the strata are re-derived from the program (they are a
   function of it), their outputs replayed from the dump, and the
   ACDom/base bookkeeping recomputed from the EDB exactly as
   [materialize] does. Trusts the dump to be the program's fixpoint —
   integrity is the snapshot layer's checksum's job. *)
let restore ?pool ?(join = `Auto) (sigma : Theory.t) (d : dump) =
  let t = make_shell ?pool sigma d.d_edb in
  let theories = stratum_theories sigma in
  if List.length theories <> List.length d.d_strata then
    invalid_arg
      (Fmt.str "Incr.restore: dump has %d strata, the program needs %d"
         (List.length d.d_strata) (List.length theories));
  let prev = ref t.base in
  let strata =
    List.map2
      (fun th sd ->
        let st_in = !prev in
        let st_out = Database.copy st_in in
        List.iter (fun f -> ignore (Database.add st_out f)) sd.sd_new;
        prev := st_out;
        make_stratum ~join th ~st_in ~st_out)
      theories d.d_strata
    |> Array.of_list
  in
  { t with strata }

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)

type apply_result = {
  res_added : int;
  res_removed : int;
  res_fallback_strata : int;
}

(* Net-effective EDB change of a batch under (EDB \ D) ∪ A semantics:
   deletions that hit a present fact not re-added, additions of absent
   facts — each deduplicated. *)
let effective_changes edb (delta : Delta.t) =
  let in_additions = Atom.Tbl.create 16 in
  List.iter (fun f -> Atom.Tbl.replace in_additions f ()) delta.Delta.additions;
  let seen_del = Atom.Tbl.create 16 in
  let eff_del =
    List.filter
      (fun f ->
        Database.mem edb f
        && (not (Atom.Tbl.mem in_additions f))
        &&
        if Atom.Tbl.mem seen_del f then false
        else begin
          Atom.Tbl.replace seen_del f ();
          true
        end)
      delta.Delta.deletions
  in
  let seen_ins = Atom.Tbl.create 16 in
  let eff_ins =
    List.filter
      (fun f ->
        (not (Database.mem edb f))
        &&
        if Atom.Tbl.mem seen_ins f then false
        else begin
          Atom.Tbl.replace seen_ins f ();
          true
        end)
      delta.Delta.additions
  in
  (eff_ins, eff_del)

let apply t (delta : Delta.t) =
  let eff_ins, eff_del = effective_changes t.edb delta in
  List.iter (fun f -> ignore (Database.remove t.edb f)) eff_del;
  List.iter (fun f -> ignore (Database.add t.edb f)) eff_ins;
  let base_ins, base_del = base_deltas t ~eff_ins ~eff_del in
  let acc0 = acc_create () in
  List.iter (fun f -> if Database.remove t.base f then acc_remove acc0 f) base_del;
  List.iter (fun f -> if Database.add t.base f then acc_add acc0 f) base_ins;
  let fallbacks = ref 0 in
  let final =
    Array.fold_left
      (fun acc st ->
        let ins = acc_added acc and del = acc_removed acc in
        let acc' = acc_create () in
        if process_stratum ?pool:t.pool st acc' ~ins ~del then incr fallbacks;
        acc')
      acc0 t.strata
  in
  {
    res_added = Atom.Tbl.length final.acc_added;
    res_removed = Atom.Tbl.length final.acc_removed;
    res_fallback_strata = !fallbacks;
  }

let refresh t =
  (* Rebuild each stratum's output in place: the databases are shared
     down the chain, so the objects must survive. *)
  Array.iter
    (fun st ->
      let acc = acc_create () in
      fallback_recompute ?pool:t.pool st acc)
    t.strata

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let answers t ~query = Database.constant_tuples (db t) query

module Tuple_set = Set.Make (struct
  type t = Term.t list

  let compare = List.compare Term.compare
end)

let cq_answers t ~body ~answer_vars =
  let database = db t in
  let acc = ref Tuple_set.empty in
  let iter_body k =
    match Planner.plan body with
    | Planner.Binary -> Homomorphism.iter_pos body database k
    | Planner.Wcoj order -> Wcoj.iter_pos ~order body database k
  in
  iter_body (fun subst ->
      let tuple =
        List.map
          (fun v -> match Subst.find_opt v subst with Some tm -> tm | None -> Term.Var v)
          answer_vars
      in
      if List.for_all Term.is_const tuple then acc := Tuple_set.add tuple !acc);
  Tuple_set.elements !acc
