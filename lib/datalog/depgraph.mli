(** The predicate dependency graph of a program: edges from body
    relations to head relations, Tarjan SCCs in dependencies-first
    order, recursion and relevance queries. *)

open Guarded_core

module Rel_map : Map.S with type key = Atom.rel_key
module Rel_set = Theory.Rel_set

type t

val of_theory : Theory.t -> t

val successors : t -> Atom.rel_key -> Rel_set.t
(** Head relations with a body occurrence of the key. *)

val predecessors : t -> Atom.rel_key -> Rel_set.t
(** Body relations of the rules deriving the key. *)

val sccs : t -> Atom.rel_key list list
(** Strongly connected components, dependencies first: every component
    only depends on earlier ones. *)

val recursive_relations : t -> Rel_set.t

val rule_components : Theory.t -> Theory.t list
(** Partition a program's rules into evaluation components,
    dependencies first: the SCC condensation of the dependency graph
    with each rule's head relations identified (a multi-head rule
    derives its heads together, so its heads share a component). Every
    body relation of a component is derived in the same or an earlier
    component; concatenating the components gives back the program.
    Refines a (negation) stratum for incremental maintenance, so a
    delete/rederive pass or a negation fallback pays only for the
    components a batch reaches. *)

val reachable_from : t -> Rel_set.t -> Rel_set.t
(** Relations on which the targets transitively depend (inclusive) —
    the query-relevant part of a program. *)
