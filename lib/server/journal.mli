(** Bounded in-memory journal of committed batches.

    The primary appends one record per committed epoch — the epoch
    number and the batch's {!Guarded_incr.Delta} in its textual form
    (the [JOURNAL] wire payload) — and followers are streamed every
    record past the epoch they already hold. The journal is bounded by
    total payload bytes: when an append pushes the retained size past
    the cap, the oldest records are evicted. A follower whose resume
    epoch has been evicted cannot be served by replay and must
    re-bootstrap from a snapshot ({!covers} is the test).

    Records are contiguous: epochs [oldest .. latest] with no gaps, an
    invariant {!append} enforces (appending epoch [e] requires the
    journal to be empty or to end at [e - 1]; anything else clears the
    journal first, which is the safe answer after a snapshot install).

    Thread-safe: every operation takes the journal's own lock, so the
    state's writer thread appends while the reactor reads. *)

type t

val create : ?max_bytes:int -> unit -> t
(** An empty journal retaining at most [max_bytes] of delta text
    (default 16 MiB, clamped to [>= 4096]). At least the most recent
    record is always retained, even when it alone exceeds the cap. *)

val append : t -> epoch:int -> Guarded_incr.Delta.t -> unit
(** Record the batch that created [epoch]. If [epoch] does not extend
    the retained run ([latest + 1]), the journal is cleared first so
    contiguity holds. *)

val since : t -> int -> (int * string) list
(** [since t k]: the retained records with epoch [> k], oldest first,
    each as [(epoch, delta_text)]. The caller must check {!covers}
    first — a gap between [k] and the oldest retained record makes the
    result unusable for replay. *)

val covers : t -> since:int -> epoch:int -> bool
(** Whether replaying {!since} [k] from this journal reproduces every
    epoch in [(k, epoch]]: either [k = epoch] (nothing to send), or the
    retained run starts at or below [k + 1] and ends at [epoch]. *)

val oldest : t -> int option
(** The lowest retained epoch, [None] when empty. *)

val latest : t -> int option
(** The highest retained epoch, [None] when empty. *)

val bytes : t -> int
(** Total retained delta-text bytes (the [journal_bytes] gauge). *)

val records : t -> int
(** Retained record count. *)

val clear : t -> unit
