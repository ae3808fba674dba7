(** Databases: mutable, indexed stores of ground atoms.

    A database is a finite set of atoms over constants and labeled
    nulls. Each relation is stored columnar — packed int columns of
    interned term ids plus a row→fact array — and candidate selection
    for partially bound atoms runs over sorted-run indexes ({!Intrun})
    maintained LSM-style per position, so the hot join path does binary
    searches and direct column reads instead of hash probes. Additions
    append rows without touching the indexes (the first lookup that
    needs one folds pending rows in, merging runs of similar size);
    candidate iteration snapshots the runs, so facts added mid-iteration
    are not visited and concurrent readers are safe. Removals
    ({!remove}) are tombstones: the row stays in its columns, marked
    dead, so no run is discarded; the first lookup of a position after
    removals purges the dead rows from its runs in one merge, and the
    removal that leaves a quarter of a relation's rows dead compacts
    it. Removals must not run during a candidate iteration. *)

type t

val acdom_rel : string
(** The distinguished unary relation "ACDom" holding the active domain
    (Section 2 of the paper). *)

val create : unit -> t

val add : t -> Atom.t -> bool
(** [add db a] inserts the ground atom [a]; returns [false] when it was
    already present. @raise Invalid_argument on a non-ground atom. *)

val add_all : t -> Atom.t list -> unit
val of_atoms : Atom.t list -> t

val remove : t -> Atom.t -> bool
(** [remove db a] deletes the fact [a]; returns [false] when it was not
    present. The fact's row becomes a tombstone that scans skip and the
    next index lookup of each position purges, so every count,
    candidate stream and probe is exact right after it; amortized O(1)
    (the removal that leaves a quarter of the relation's rows dead
    compacts it). Must not be called while a candidate iteration over
    [db] is in progress. *)

type epoch
(** A point in a database's mutation history; see {!epoch}/{!rollback}. *)

val epoch : t -> epoch
(** The current epoch: a monotone counter bumped by every effective
    {!add} or {!remove}. *)

val enable_journal : t -> unit
(** Start logging inverse operations so that later mutations can be
    undone with {!rollback}. Off by default (and in {!copy}ies);
    journaling costs one list cell per mutation. *)

val rollback : t -> epoch -> unit
(** [rollback db e] undoes every mutation made after epoch [e], newest
    first, restoring the exact fact set held at [e].
    @raise Invalid_argument if [e] is in the future or the journal does
    not reach back to [e] (journaling off or enabled after [e]). *)

val mem : t -> Atom.t -> bool
val cardinal : t -> int
val iter : (Atom.t -> unit) -> t -> unit
val fold : (Atom.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Atom.t list
val copy : t -> t

val facts_of_rel : t -> Atom.rel_key -> Atom.t list
val rel_cardinal : t -> Atom.rel_key -> int

val candidate_count : t -> Atom.t -> int
(** [candidate_count db pattern] is the number of facts the best single
    positional index narrows [pattern] down to: the minimum bucket size
    over every bound (ground) position, or the relation cardinality when
    no position is bound. An upper bound on the number of true matches,
    computed without touching any fact — the join planner's estimator. *)

val iter_candidates : t -> Atom.t -> (Atom.t -> unit) -> unit
(** [iter_candidates db pattern f] calls [f] on a superset of the facts
    matching [pattern]: it walks the smallest bound position's index
    bucket, intersecting with the other bound positions' buckets by
    membership, without building an intermediate list. Facts added to
    [db] during the iteration are not visited. *)

val candidates : t -> Atom.t -> Atom.t list
(** {!iter_candidates} materialized as a list. A superset of the true
    matches; prefer {!iter_candidates} on hot paths. *)

val candidate_count_under : t -> Subst.t -> Atom.t -> int
(** {!candidate_count} of the pattern under a substitution, without
    building the substituted atom: pattern-ground positions read their
    stored term ids, substituted variables cost one {!Term.id} lookup.
    The join planner's inner-loop estimator. *)

val iter_candidates_under : t -> Subst.t -> Atom.t -> (Atom.t -> unit) -> unit
(** {!iter_candidates} of the pattern under a substitution — again
    without building the substituted atom. The caller confirms each
    candidate with [Subst.match_atom subst pattern]. *)

val exists_under : t -> Subst.t -> Atom.t -> bool
(** [exists_under db subst pattern]: does some stored fact match
    [pattern] under [subst]? Exact (unlike the candidate superset);
    the worst-case-optimal join's leaf check. *)

val fast_var_eligible : t -> Subst.t -> Atom.t -> var:string -> bool
(** Would {!distinct_ids_under} return [Some]? Constant-time (no
    distinct-value walk); the WCOJ executor's gate for the leapfrog
    path. *)

val distinct_ids_under : t -> Subst.t -> Atom.t -> var:string -> int array option
(** [distinct_ids_under db subst pattern ~var] is the sorted array of
    distinct term ids appearing at [var]'s position in [pattern]'s
    relation — but only in the fast case where [var] occurs at exactly
    one position, is unbound, and no other position of the pattern is
    bound; [None] otherwise. Read straight off the sorted runs; the
    leapfrog intersection's input. *)

val iter_values_of_ids : t -> Atom.t -> var:string -> int array -> (Term.t -> unit) -> unit
(** [iter_values_of_ids db pattern ~var ids f] resolves each term id in
    [ids] back to its {!Term.t} via a witnessing stored fact of
    [pattern]'s relation at [var]'s first position, calling [f] per id
    that has a witness. Companion to {!distinct_ids_under}. *)

val iter_var_values_under : t -> Subst.t -> Atom.t -> var:string -> (Term.t -> unit) -> unit
(** [iter_var_values_under db subst pattern ~var f] calls [f] once per
    distinct term that [var] takes in the stored facts consistent with
    [pattern] under [subst] ([var] must be unbound in [subst]). The
    general value-enumeration probe of the worst-case-optimal join:
    complete (every extendable value is emitted), duplicate-free, and
    sound up to the same per-position approximation as
    {!iter_candidates_under} — callers re-check full matches at the
    leaves. *)

val constant_tuples : t -> string -> Term.t list list
(** [constant_tuples db name]: the argument tuples of every all-constant
    fact of a relation named [name] (any arity), sorted and
    deduplicated — folds the relation index directly into a set. *)

val active_domain : t -> Term.Set.t
(** Every term occurring in a non-ACDom fact. *)

val materialize_acdom : t -> unit
(** Adds ACDom(t) for every term of the current active domain. *)

val relations : t -> Atom.rel_key list

val relation_ids : t -> int list
(** The {!Atom.rel_id}s present, for id-keyed rule indexing. *)

val restrict : t -> (Atom.t -> bool) -> t
val equal : t -> t -> bool

type rel_stats = {
  rs_rel : Atom.rel_key;
  rs_rows : int;  (** live rows *)
  rs_runs : int;  (** sorted index runs currently materialized *)
  rs_bytes : int;  (** approximate resident bytes of columns + indexes *)
}

val storage_stats : t -> rel_stats list
(** Per-relation storage metrics of the columnar layout, for the server
    STATS verb and diagnostics. Does not force index flushes: only runs
    already materialized are counted. *)

val pp : t Fmt.t
