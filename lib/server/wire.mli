(** The serving wire protocol: framing, requests, responses.

    Messages travel as length-prefixed frames — a 4-byte big-endian
    payload length followed by the payload — whose payload is a line of
    the textual command language (responses may span several lines
    inside one frame):

    {v
      request  ::= "? " REL [ "(" terms ")" ]        relation query
                 | "?? " cq (";" cq)*                conjunctive query (UCQ)
                 | "+" fact "."                      stage an insertion
                 | "-" fact "."                      stage a deletion
                 | "LOAD " n NL factblock            stage n binary facts
                 | "COMMIT"                          apply the staged batch
                 | "STATS"                           counters and latencies
                 | "SNAPSHOT" [ " " path ]           persist a snapshot
                 | "FOLLOW " k                       stream committed epochs > k
                 | "ROLE"                            primary or replica?
                 | "PROMOTE"                         make this server writable
                 | "QUIT"                            close the connection
      response ::= "OK"
                 | "ANSWERS " n NL tuple*            one "(t1, ..., tk)" per line
                 | "COMMITTED +" a " -" r " @" epoch
                 | "LOADED " n                       facts staged by a LOAD
                 | "STATS" NL (key " " value)*
                 | "FOLLOWING @" epoch               replay begins after this epoch
                 | "SNAP " epoch " " n NL bytes      snapshot image at that epoch
                 | "JOURNAL " epoch NL delta         one committed batch
                 | "ROLE " ("primary" | "replica" " @" epoch " lag=" n)
                          [" primary=" addr]
                 | "ERROR " message
                 | "BYE"
    v}

    {b Replication verbs.} [FOLLOW k] declares "I hold every epoch
    through [k]; stream me what comes after" ([k = -1]: "I hold
    nothing; send a snapshot"). The server answers either
    [FOLLOWING @e] — its journal covers [(k, e]] and replay starts
    immediately — or [SNAP e n] carrying a {!Snapshot}-format image of
    epoch [e] (same [GRDSNAP1] magic, length and checksum as the file
    form; a corrupt or version-mismatched image is rejected by the
    replica with a parseable [ERROR]). Either way the connection then
    turns into a one-way stream of [JOURNAL e] records, one per
    committed batch in strict epoch order, each carrying the batch's
    {!Guarded_incr.Delta} text. [ROLE] reports whether the server is a
    writable primary or a read-only replica (with its current epoch,
    replication lag, and — for a replica — its primary's address);
    [PROMOTE] flips a replica into a writable primary (warm failover)
    and is answered with the new [ROLE] line. Writes sent to a replica
    are refused with [ERROR redirect ADDR: ...] naming the primary.

    [LOAD] is the bulk-ingest fast path: its [factblock] is [n] ground
    facts in {!Guarded_core.Codec.write_atom}'s binary encoding, back
    to back with no count prefix (the count travels in the header
    line), so a 100k-fact EDB stages without 100k lines of text
    parsing. Only the header is validated on receipt — staging a block
    is a copy, and decoding happens inside [COMMIT] (off the event
    loop, on the state's writer thread, before it takes the write
    lock). The staged facts join the connection's
    pending batch exactly as that many [+fact.] lines would; a corrupt
    or non-ground block therefore surfaces as an [ERROR] reply to the
    [COMMIT], which discards the whole staged batch and leaves the
    connection usable.

    [STATS] keys include the demand-mode subgoal-cache counters —
    [cache_hits], [cache_misses], [cache_entries] (currently resident)
    and [cache_evictions] (lifetime) — plus [heap_kb] (the server
    process's current major-heap size) and [demand] (1 when the server
    answers queries demand-driven, 0 when it serves a materialization).
    The cache counters are all zero in materialized mode; in demand
    mode [cache_hits]/[cache_misses]/[cache_evictions] are monotone
    across a connection's lifetime.

    The finite-chase serving keys: [chase_mode] (1 when the server
    materializes the chase itself instead of a Datalog translation,
    else 0), [chase_nulls] (gauge: distinct labeled nulls resident in
    the served chase) and [chase_derivations] (monotone: chase
    derivations performed since startup, across re-chases and
    incremental continuations). All three are zero outside chase
    mode.

    The event-loop counters describe the reactor that owns every
    connection: [connections_open] (gauge: descriptors currently
    registered, equals [connections]), [bytes_buffered] (gauge: bytes
    coalesced in output buffers across all connections, awaiting the
    socket), [backpressure_stalls] (monotone: times a connection's
    output buffer crossed the high-water mark and its reads were
    paused until the buffer drained to the low-water mark) and
    [load_facts] (monotone: facts staged through [LOAD] since
    startup). [scripts/server_smoke.sh] asserts the presence of all
    four and the monotonicity of the latter two.

    The replication keys: [role] (0 = primary, 1 = replica),
    [replicas_connected] (gauge: connections currently following this
    server's journal), [replication_lag_epochs] (gauge: how many
    epochs the server trails the primary it follows; 0 on a primary)
    and [journal_bytes] (gauge: delta text retained in the in-memory
    journal, the replay window for reconnecting followers).
    [scripts/server_smoke.sh]'s [repl] mode asserts all four on both
    sides of a primary/replica pair: the roles, the lag draining to
    zero, and [journal_bytes] growing monotonically with commits.

    Keywords are accepted case-insensitively; printers emit the
    canonical uppercase spelling and quote constants as needed
    ({!Guarded_core.Term.pp_quoted}), so [parse ∘ print] is the
    identity on every representable message — the property the test
    suite checks on generated batches and queries. *)

open Guarded_core

type fact_block = { fb_count : int; fb_block : string }
(** An undecoded [LOAD] payload: the declared fact count and the raw
    binary block. Decoding is deferred to commit time — see
    {!facts_of_load}. *)

type request =
  | Query of { rel : string; pattern : Term.t list option }
      (** [? REL] lists a relation's constant tuples; [? REL(t1, ...)]
          restricts to facts matching the pattern (variables are
          wildcards). *)
  | Cq of Guarded_cq.Ucq.t * string
      (** [?? body -> q(X).] — ";"-separated disjuncts form a union;
          the string is the head relation name (kept for printing). *)
  | Add of Atom.t
  | Remove of Atom.t
  | Load of fact_block
      (** [LOAD n] — stage [n] ground facts delivered as a binary
          {!Guarded_core.Codec.write_fact_block}; the bulk-ingest path. *)
  | Commit
  | Stats
  | Snapshot of string option
  | Follow of int
      (** [FOLLOW k] — stream every committed epoch past [k]; [-1]
          demands a snapshot first. Sent by a bootstrapping replica. *)
  | Role
  | Promote
  | Quit

type stats = {
  s_epoch : int;  (** committed batches since startup *)
  s_facts : int;  (** materialization cardinality *)
  s_edb_facts : int;
  s_queries : int;  (** queries served (aggregate) *)
  s_batches : int;  (** batches committed (aggregate) *)
  s_queue_depth : int;  (** commit queue occupancy *)
  s_connections : int;  (** currently open connections *)
  s_total_connections : int;
  s_connections_open : int;  (** reactor's open-descriptor gauge *)
  s_bytes_buffered : int;  (** output bytes coalesced, awaiting sockets *)
  s_backpressure_stalls : int;  (** high-water crossings (monotone) *)
  s_load_facts : int;  (** facts staged via [LOAD] (monotone) *)
  s_query_p50_us : int;  (** query latency percentiles, microseconds *)
  s_query_p95_us : int;
  s_commit_p50_us : int;  (** commit latency percentiles, microseconds *)
  s_commit_p95_us : int;
  s_relations : int;  (** relations in the materialization's store *)
  s_index_runs : int;  (** sorted index runs currently materialized *)
  s_storage_bytes : int;  (** resident bytes of columns + indexes *)
  s_cache_hits : int;  (** subgoal-cache hits (demand mode; aggregate) *)
  s_cache_misses : int;  (** subgoal-cache misses (demand mode; aggregate) *)
  s_cache_entries : int;  (** subgoals currently memoized *)
  s_cache_evictions : int;  (** entries evicted by commits (aggregate) *)
  s_heap_kb : int;  (** current major-heap size, kilobytes *)
  s_demand : int;  (** 1 when serving demand-driven, else 0 *)
  s_chase_mode : int;  (** 1 when serving the materialized chase, else 0 *)
  s_chase_nulls : int;  (** distinct labeled nulls resident in the chase *)
  s_chase_derivations : int;  (** chase derivations since startup (monotone) *)
  s_role : int;  (** 0 = primary, 1 = replica *)
  s_replicas_connected : int;  (** followers streaming this journal *)
  s_replication_lag_epochs : int;  (** epochs behind the primary; 0 on a primary *)
  s_journal_bytes : int;  (** retained journal delta text, bytes *)
}

type response =
  | Ok
  | Answers of Term.t list list
  | Committed of { added : int; removed : int; epoch : int }
  | Loaded of int  (** facts staged by a [LOAD] *)
  | Stats_reply of stats
  | Following of int
      (** [FOLLOWING @e] — the journal covers the follower's resume
          epoch; [JOURNAL] records for epochs [> resume] follow. *)
  | Snap of { sn_epoch : int; sn_bytes : string }
      (** A {!Snapshot}-format image of epoch [sn_epoch]; the
          bootstrap path when the journal no longer reaches back to
          the follower's resume epoch. *)
  | Journal_rec of { jr_epoch : int; jr_delta : Guarded_incr.Delta.t }
      (** One committed batch; replicas apply these in strict epoch
          order. *)
  | Role_reply of {
      rr_primary : bool;
      rr_epoch : int;
      rr_lag : int;  (** 0 on a primary *)
      rr_primary_addr : string option;  (** a replica names its primary *)
    }
  | Failed of string
  | Bye

val print_request : request -> string
val parse_request : string -> (request, string) result

val load_of_facts : Atom.t list -> request
(** Encodes ground facts into a [Load] request (header count + binary
    block). *)

val facts_of_load : fact_block -> (Atom.t list, string) result
(** Decodes a staged block back into its facts; [Error] on a truncated
    or corrupt block, on trailing bytes, or on a non-ground fact. This
    is the deferred half of [LOAD] — the server calls it on the state's
    writer thread when the [COMMIT] runs. *)

val print_response : response -> string
val parse_response : string -> (response, string) result

(** {1 Framing} *)

exception Protocol_error of string

val max_frame : int
(** Upper bound on a frame payload (64 MiB); larger declared lengths
    raise {!Protocol_error} rather than attempting the allocation. *)

val write_frame : Unix.file_descr -> string -> unit
(** Writes the length prefix and payload; handles short writes. *)

val read_frame : Unix.file_descr -> string option
(** Reads one frame; [None] on a clean EOF at a frame boundary.
    @raise Protocol_error on a truncated frame or an oversized
    length. *)
