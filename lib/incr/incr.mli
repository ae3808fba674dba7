(** Incremental maintenance of materialized Datalog programs.

    A {!t} is a long-lived materialization of a stratified Datalog
    program over an EDB: translate a theory once (Thms. 1/5 give
    database-independent rewritings), materialize it, then serve
    queries across update batches without re-running the fixpoint from
    scratch. Each stratum caches its own output database and is
    maintained by DRed (delete/rederive): insertions ride the
    semi-naive delta machinery, deletions overdelete and then rederive
    with one-step tests from {!Guarded_datalog.Provenance}. See
    DESIGN.md, "Incremental maintenance (DRed)". *)

open Guarded_core

type t

val materialize :
  ?pool:Guarded_par.Pool.t ->
  ?join:Guarded_datalog.Planner.join_mode ->
  Theory.t ->
  Database.t ->
  t
(** [materialize sigma edb] evaluates the stratified Datalog program
    [sigma] over [edb] (materializing ACDom from the EDB's active
    domain when the program mentions it) and caches the per-stratum
    state needed to maintain the result under updates. The EDB is
    copied; the caller's database is not retained. [?pool] is stored
    and used for the parallel rounds of every later {!apply}; [?join]
    (default [`Auto]) selects the join executor for every stratum's
    evaluation and maintenance, as in {!Guarded_datalog.Seminaive.eval}.
    @raise Invalid_argument on existential rules or unstratified
    negation. *)

val program : t -> Theory.t
val pool : t -> Guarded_par.Pool.t option

val db : t -> Database.t
(** The maintained materialization (EDB ∪ ACDom ∪ IDB). Read-only:
    mutating it corrupts the cached state. *)

val edb : t -> Database.t
(** The current raw EDB (updates applied, no ACDom, no IDB). Read-only. *)

type apply_result = {
  res_added : int;  (** net facts that entered the materialization *)
  res_removed : int;  (** net facts that left the materialization *)
  res_fallback_strata : int;
      (** strata recomputed from scratch because the batch touched a
          relation they negate *)
}

val apply : t -> Delta.t -> apply_result
(** Apply one update batch: the EDB becomes
    [(EDB \ deletions) ∪ additions] and the materialization is updated
    to the fixpoint over the new EDB. Changes propagate stratum by
    stratum as net deltas (a fact deleted and rederived in the same
    batch reports as unchanged). *)

(** {2 Snapshot support}

    A {!dump} is the cached state as plain data — enough to rebuild the
    materialization with {!restore} without re-running any fixpoint.
    {!Guarded_server.Snapshot} persists dumps in a versioned binary
    format. *)

type stratum_dump = { sd_new : Atom.t list  (** the stratum's output facts beyond its input, sorted *) }

type dump = {
  d_edb : Database.t;
  d_strata : stratum_dump list;
}

val dump : t -> dump
(** The current cached state as data. The databases are copied; the
    dump does not alias the live materialization. *)

val restore :
  ?pool:Guarded_par.Pool.t ->
  ?join:Guarded_datalog.Planner.join_mode ->
  Theory.t ->
  dump ->
  t
(** Rebuild a materialization from a dump of the same program,
    recomputing only the EDB-derived bookkeeping (ACDom counts, rule
    engines) — no fixpoint runs. The dumped facts are trusted to be the
    program's fixpoint; use the snapshot layer's checksums to guard
    integrity.
    @raise Invalid_argument when the dump's stratum count does not
    match the program's. *)

val refresh : t -> unit
(** Recompute every stratum from scratch over the current EDB,
    rebuilding every stratum's cached output. The maintained result is
    unchanged if the invariants held — an escape hatch and a debugging
    aid, not part of the serving fast path. *)

val answers : t -> query:string -> Term.t list list
(** Sorted, deduplicated constant tuples of the [query] relation in the
    current materialization. *)

val cq_answers : t -> body:Atom.t list -> answer_vars:string list -> Term.t list list
(** Answers of a conjunctive query evaluated directly against the
    current materialization: homomorphisms of [body], projected on
    [answer_vars], restricted to all-constant tuples, sorted and
    deduplicated. (For certain-answer semantics the program must
    already be the translation of the ontology — which is the serving
    setup.) *)
