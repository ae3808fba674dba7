(** Semi-naive bottom-up evaluation of Datalog programs.

    Standard differential fixpoint with a delta rule index: a round
    only re-fires the rules whose body mentions a relation present in
    the current delta. Negation must be semipositive (negated relations
    are never derived), which is what per-stratum evaluation of
    stratified theories needs. *)

open Guarded_core

val check_datalog : Theory.t -> unit
(** @raise Invalid_argument on a rule with existential variables. *)

val mentions_acdom : Theory.t -> bool

val eval :
  ?acdom:bool ->
  ?pool:Guarded_par.Pool.t ->
  ?join:Planner.join_mode ->
  Theory.t ->
  Database.t ->
  Database.t
(** [eval sigma db] returns the fixpoint (input included). When the
    program mentions the built-in ACDom relation and [acdom] is true
    (default), ACDom is materialized from the input's active domain
    first. With [?pool], each round's firings are partitioned over the
    pool's domains against an immutable snapshot of the database, with
    a canonical-order merge at the round barrier: the resulting fact
    set is identical to the sequential run for every domain count.
    Without [?pool] (default) the sequential schedule is unchanged.
    [?join] selects the per-rule join executor ([`Auto], the default,
    lets {!Planner.plan} pick worst-case-optimal joins for cyclic
    bodies and binary joins otherwise; the forced modes are for tests
    and benchmarks) — the fixpoint is the same set either way.
    @raise Invalid_argument on existential rules or non-semipositive
    negation. *)

val answers :
  ?pool:Guarded_par.Pool.t -> Theory.t -> Database.t -> query:string -> Term.t list list
(** Sorted, deduplicated constant tuples of the [query] relation in the
    fixpoint (folded into a set directly — no intermediate fact list). *)

(** {1 Reusable engine}

    Incremental maintenance evaluates the same program over a
    long-lived database many times. The prepared rules and the delta
    rule index are input-independent; an {!engine} builds them once. *)

type engine

val engine : ?join:Planner.join_mode -> Theory.t -> engine
(** @raise Invalid_argument on existential rules or non-semipositive
    negation. [?join] as in {!eval}. *)

val engine_theory : engine -> Theory.t

val delta_insert :
  ?pool:Guarded_par.Pool.t -> engine -> Database.t -> Atom.t list -> Atom.t list
(** [delta_insert e db facts] inserts [facts] into [db] {e in place} and
    runs semi-naive delta rounds to the new fixpoint. Returns every
    fact actually added — the effective seeds plus all newly derived
    facts, in addition order. ACDom is not materialized here; callers
    owning ACDom maintenance pass the relevant ACDom deltas in
    [facts]. *)

val iter_seeded_heads :
  ?pool:Guarded_par.Pool.t ->
  engine ->
  seed:Database.t ->
  db:Database.t ->
  (Atom.t -> unit) ->
  unit
(** [iter_seeded_heads e ~seed ~db f] calls [f] on the instantiated
    head atoms of every rule instance with at least one premise matched
    in [seed]; the remaining premises and the negative literals are
    checked against [db]. This is DRed's overdeletion step. A head is
    reported once per instance and per premise position matched in
    [seed], so callers collect heads into a set. With [?pool] the
    anchored units run in parallel into buffers and [f] is invoked
    sequentially in canonical unit order, so the visit sequence is
    independent of the domain count. *)
