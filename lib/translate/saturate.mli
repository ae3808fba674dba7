(** The saturation calculus of Figure 3 and the guarded-to-Datalog
    translation dat(Σ) (Definition 19, Theorem 3, Proposition 6).

    Two implementations are provided:
    - {!closure} / {!dat_via_closure}: the calculus of Figure 3 taken
      literally (modulo the consequence-driven restrictions that skip
      inferences reconstructible at evaluation time) — every derived
      rule is materialized, by an indexed given-clause loop.
      {!closure_reference} is the unindexed seed loop, kept as an
      oracle. Right for small theories and for inspecting derivations
      such as Example 7.
    - {!dat}: the consequence-driven formulation (EL / Horn-SHIQ style):
      one object per (body, head) state whose head grows in place;
      resolutions that need variable unifications or extra body atoms
      spawn new objects; saturated heads are projected into Datalog
      rules. This is the one the pipelines use. *)

open Guarded_core

exception Budget_exceeded of string

type stats = {
  input_rules : int;
  closure_rules : int;
  datalog_rules : int;
  resolutions : int;
}

val project : Rule.t -> Rule.t list
(** Fig. 3's first rule: α → A for each head atom A without existential
    variables. *)

val unify : Rule.t -> Rule.t list
(** Fig. 3's third rule through single merges x ↦ y (their closure
    generates every non-injective g). *)

val resolve : Rule.t -> Rule.t -> Rule.t list
(** Fig. 3's second rule: resolve the Datalog second argument into the
    head of the first. *)

val closure :
  ?pool:Guarded_par.Pool.t ->
  ?max_rules:int ->
  ?subsume:bool ->
  Theory.t ->
  Theory.t * stats
(** Ξ(Σ): the closure of Σ under the three inference rules, computed by
    an indexed given-clause loop. Committed rules live in
    relation-signature indexes (Datalog rules by body relation,
    existential rules by head relation), so each given clause retrieves
    its resolution partners by lookup, and every unordered pair is
    combined exactly once. Rules are deduplicated by
    {!Rule.canonical_key} (renaming-invariant) behind a
    renaming-sensitive {!Rule.raw_key} prefilter.

    [pool] parallelizes candidate generation across each round's given
    clauses; commits stay sequential in round order, so the resulting
    theory and stats are identical with and without a pool.

    [subsume] additionally runs forward/backward subsumption
    ({!Subsumption}) over single-head Datalog rules at commit time.
    Subsumed rules are excluded from the returned theory (and
    [closure_rules] / [datalog_rules]) but still take part in the
    saturation itself, so the output's Datalog fixpoint is exactly that
    of the unpruned closure. Default [false] — the output then matches
    {!closure_reference} as a canonical rule set. *)

val closure_reference : ?max_rules:int -> Theory.t -> Theory.t * stats
(** The seed's snapshot-based closure loop, kept verbatim as an
    independent oracle: no indexes, no pool, dedup by printed structural
    key of the canonicalized rule. Same closure as {!closure} (as a set
    of rules up to renaming) — the test suite holds the two to that. *)

val dat_via_closure : ?max_rules:int -> Theory.t -> Theory.t * stats
(** The Datalog rules of Ξ(Σ) (Def. 19 verbatim). *)

val dat : ?max_rules:int -> Theory.t -> Theory.t * stats
(** Consequence-driven dat(Σ) for a guarded (or any positive) theory:
    same certain answers as Σ on every database (Thm. 3). The program
    is returned {!Subsumption.reduce}d (which also deduplicates it), so
    it holds no rule that another of its rules subsumes; [stats]
    count the reduced program.

    Invariant (three variable sorts). Every variable taking part in a
    resolution belongs to exactly one of three disjoint sorts, and the
    internal unifier treats them asymmetrically:
    - {e pattern} variables — the renamed-apart Datalog partner's own
      variables — bind freely to any term;
    - {e universal} variables of the object under saturation (the
      variables of its body α) may merge only with each other,
      implementing Fig. 3's g : vars(α) → vars(α);
    - {e existential} variables of the object are rigid: they are never
      substituted, and may only absorb pattern variables — a resolution
      must chain through such a witness to be admissible (the
      consequence-driven condition).
    Partners are renamed apart before unification, so the sorts are
    disjoint by construction; a variable violating this (e.g. a partner
    sharing a name with the object after a collision) forces a fresh
    renaming first. *)

val dat_nearly_guarded : ?max_rules:int -> Theory.t -> Theory.t * stats
(** Prop. 6: dat(Σg) ∪ Σd for a nearly guarded theory,
    {!Subsumption.reduce}d as a whole. [stats] are those of
    dat(Σg). *)
