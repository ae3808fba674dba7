(** Sorted integer runs: the packed building block of the columnar
    fact indexes.

    A {e run} is an [int array] of packed (value, row) pairs, sorted
    ascending. Packing both halves into one native int keeps a run a
    single flat allocation the GC never scans, and makes every
    comparison one integer compare: the positional indexes of
    {!Database} store, per column, a short list of such runs (newest
    first, lengths increasing), and candidate selection binary-searches
    or gallops over them instead of probing hash buckets.

    Values and rows must fit in 31 bits each — term ids and row indexes
    are dense small integers, far below the bound. *)

val pack : int -> int -> int
(** [pack v r] packs value [v] and row [r] into one int, ordered first
    by value, then by row. Both must be in [\[0, 2^31)]. *)

val value : int -> int
(** The value half of a packed entry. *)

val row : int -> int
(** The row half of a packed entry. *)

val sort : int array -> unit
(** Sorts a run in place (ascending). *)

val merge : int array -> int array -> int array
(** [merge a b] merges two sorted runs into one sorted run. Duplicate
    entries are kept — the caller never produces them (a (value, row)
    pair is unique per relation), but merging is oblivious to them. *)

val merge_filter : int array list -> (int -> bool) -> int array
(** [merge_filter runs keep] merges any number of sorted runs into one
    sorted run holding exactly the entries whose row half satisfies
    [keep] — one k-way pass that allocates only the output (sized by a
    counting pass first); a single run that loses nothing is returned
    as is. The purge step of tombstoned deletes. *)

val lower : int array -> int -> int
(** [lower a key] is the first index whose entry is [>= key], or
    [Array.length a] when none is — a binary search. *)

val seg : int array -> int -> int * int
(** [seg a v] is the half-open index range [\[lo, hi)] of the entries
    whose value half equals [v]; empty ranges have [lo = hi]. *)

val count_value : int array -> int -> int
(** Number of entries with the given value half. *)

val gallop : int array -> int -> lo:int -> int
(** [gallop a key ~lo] is the first index [>= lo] whose entry is
    [>= key], found by doubling probes from [lo] then binary search —
    [O(log d)] in the distance [d] advanced, the leapfrog step. *)

val inter : int array -> int array -> int array
(** [inter a b] intersects two sorted duplicate-free int arrays (plain
    values, not packed pairs), galloping through the longer side from
    the shorter. Used to leapfrog distinct-value sets in the
    worst-case-optimal join. *)

val iter_distinct_values : int array list -> (int -> int -> unit) -> unit
(** [iter_distinct_values runs f] calls [f v row] once per distinct
    value half [v] occurring in any of the sorted [runs], in ascending
    value order, with [row] the smallest row half witnessing [v]. *)
