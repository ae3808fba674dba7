(** Wire protocol: textual request/response forms and frame I/O. See
    the interface for the grammar. *)

open Guarded_core
module Delta = Guarded_incr.Delta

type fact_block = { fb_count : int; fb_block : string }

type request =
  | Query of { rel : string; pattern : Term.t list option }
  | Cq of Guarded_cq.Ucq.t * string
  | Add of Atom.t
  | Remove of Atom.t
  | Load of fact_block
  | Commit
  | Stats
  | Snapshot of string option
  | Follow of int
  | Role
  | Promote
  | Quit

type stats = {
  s_epoch : int;
  s_facts : int;
  s_edb_facts : int;
  s_queries : int;
  s_batches : int;
  s_queue_depth : int;
  s_connections : int;
  s_total_connections : int;
  s_connections_open : int;
  s_bytes_buffered : int;
  s_backpressure_stalls : int;
  s_load_facts : int;
  s_query_p50_us : int;
  s_query_p95_us : int;
  s_commit_p50_us : int;
  s_commit_p95_us : int;
  s_relations : int;
  s_index_runs : int;
  s_storage_bytes : int;
  s_cache_hits : int;
  s_cache_misses : int;
  s_cache_entries : int;
  s_cache_evictions : int;
  s_heap_kb : int;
  s_demand : int;
  s_chase_mode : int;
  s_chase_nulls : int;
  s_chase_derivations : int;
  s_role : int;
  s_replicas_connected : int;
  s_replication_lag_epochs : int;
  s_journal_bytes : int;
}

type response =
  | Ok
  | Answers of Term.t list list
  | Committed of { added : int; removed : int; epoch : int }
  | Loaded of int
  | Stats_reply of stats
  | Following of int
  | Snap of { sn_epoch : int; sn_bytes : string }
  | Journal_rec of { jr_epoch : int; jr_delta : Delta.t }
  | Role_reply of { rr_primary : bool; rr_epoch : int; rr_lag : int; rr_primary_addr : string option }
  | Failed of string
  | Bye

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let pp_terms = Names.pp_comma_list Term.pp_quoted

let pp_cq ppf ((q : Guarded_cq.Cq.t), rel) =
  Fmt.pf ppf "%a -> %s(%a)."
    (Names.pp_comma_list Atom.pp_quoted)
    q.Guarded_cq.Cq.body rel
    (Names.pp_comma_list (fun ppf v -> Fmt.pf ppf "?%s" v))
    q.Guarded_cq.Cq.answer_vars

let print_request = function
  | Query { rel; pattern = None } -> Fmt.str "? %s" rel
  | Query { rel; pattern = Some ts } -> Fmt.str "? %s(%a)" rel pp_terms ts
  | Cq (u, rel) ->
    Fmt.str "?? %a"
      (Fmt.list ~sep:(Fmt.any " ; ") pp_cq)
      (List.map (fun q -> (q, rel)) u.Guarded_cq.Ucq.disjuncts)
  | Add a -> Fmt.str "+%a." Atom.pp_quoted a
  | Remove a -> Fmt.str "-%a." Atom.pp_quoted a
  | Load b ->
    (* A textual header line, then the binary Codec block — the whole
       request still travels as one frame. *)
    Fmt.str "LOAD %d\n" b.fb_count ^ b.fb_block
  | Commit -> "COMMIT"
  | Stats -> "STATS"
  | Snapshot None -> "SNAPSHOT"
  | Snapshot (Some path) -> "SNAPSHOT " ^ path
  | Follow since -> Fmt.str "FOLLOW %d" since
  | Role -> "ROLE"
  | Promote -> "PROMOTE"
  | Quit -> "QUIT"

let pp_tuple ppf tuple = Fmt.pf ppf "(%a)" pp_terms tuple

(* The STATS payload, one "key value" line per field; parse_response
   relies on this exact key set and order being reproduced. *)
let stats_fields =
  [
    ("epoch", (fun s -> s.s_epoch), fun s v -> { s with s_epoch = v });
    ("facts", (fun s -> s.s_facts), fun s v -> { s with s_facts = v });
    ("edb_facts", (fun s -> s.s_edb_facts), fun s v -> { s with s_edb_facts = v });
    ("queries", (fun s -> s.s_queries), fun s v -> { s with s_queries = v });
    ("batches", (fun s -> s.s_batches), fun s v -> { s with s_batches = v });
    ("queue_depth", (fun s -> s.s_queue_depth), fun s v -> { s with s_queue_depth = v });
    ("connections", (fun s -> s.s_connections), fun s v -> { s with s_connections = v });
    ( "total_connections",
      (fun s -> s.s_total_connections),
      fun s v -> { s with s_total_connections = v } );
    ( "connections_open",
      (fun s -> s.s_connections_open),
      fun s v -> { s with s_connections_open = v } );
    ("bytes_buffered", (fun s -> s.s_bytes_buffered), fun s v -> { s with s_bytes_buffered = v });
    ( "backpressure_stalls",
      (fun s -> s.s_backpressure_stalls),
      fun s v -> { s with s_backpressure_stalls = v } );
    ("load_facts", (fun s -> s.s_load_facts), fun s v -> { s with s_load_facts = v });
    ("query_p50_us", (fun s -> s.s_query_p50_us), fun s v -> { s with s_query_p50_us = v });
    ("query_p95_us", (fun s -> s.s_query_p95_us), fun s v -> { s with s_query_p95_us = v });
    ("commit_p50_us", (fun s -> s.s_commit_p50_us), fun s v -> { s with s_commit_p50_us = v });
    ("commit_p95_us", (fun s -> s.s_commit_p95_us), fun s v -> { s with s_commit_p95_us = v });
    ("relations", (fun s -> s.s_relations), fun s v -> { s with s_relations = v });
    ("index_runs", (fun s -> s.s_index_runs), fun s v -> { s with s_index_runs = v });
    ("storage_bytes", (fun s -> s.s_storage_bytes), fun s v -> { s with s_storage_bytes = v });
    ("cache_hits", (fun s -> s.s_cache_hits), fun s v -> { s with s_cache_hits = v });
    ("cache_misses", (fun s -> s.s_cache_misses), fun s v -> { s with s_cache_misses = v });
    ("cache_entries", (fun s -> s.s_cache_entries), fun s v -> { s with s_cache_entries = v });
    ( "cache_evictions",
      (fun s -> s.s_cache_evictions),
      fun s v -> { s with s_cache_evictions = v } );
    ("heap_kb", (fun s -> s.s_heap_kb), fun s v -> { s with s_heap_kb = v });
    ("demand", (fun s -> s.s_demand), fun s v -> { s with s_demand = v });
    ("chase_mode", (fun s -> s.s_chase_mode), fun s v -> { s with s_chase_mode = v });
    ("chase_nulls", (fun s -> s.s_chase_nulls), fun s v -> { s with s_chase_nulls = v });
    ( "chase_derivations",
      (fun s -> s.s_chase_derivations),
      fun s v -> { s with s_chase_derivations = v } );
    ("role", (fun s -> s.s_role), fun s v -> { s with s_role = v });
    ( "replicas_connected",
      (fun s -> s.s_replicas_connected),
      fun s v -> { s with s_replicas_connected = v } );
    ( "replication_lag_epochs",
      (fun s -> s.s_replication_lag_epochs),
      fun s v -> { s with s_replication_lag_epochs = v } );
    ("journal_bytes", (fun s -> s.s_journal_bytes), fun s v -> { s with s_journal_bytes = v });
  ]

let zero_stats =
  {
    s_epoch = 0;
    s_facts = 0;
    s_edb_facts = 0;
    s_queries = 0;
    s_batches = 0;
    s_queue_depth = 0;
    s_connections = 0;
    s_total_connections = 0;
    s_connections_open = 0;
    s_bytes_buffered = 0;
    s_backpressure_stalls = 0;
    s_load_facts = 0;
    s_query_p50_us = 0;
    s_query_p95_us = 0;
    s_commit_p50_us = 0;
    s_commit_p95_us = 0;
    s_relations = 0;
    s_index_runs = 0;
    s_storage_bytes = 0;
    s_cache_hits = 0;
    s_cache_misses = 0;
    s_cache_entries = 0;
    s_cache_evictions = 0;
    s_heap_kb = 0;
    s_demand = 0;
    s_chase_mode = 0;
    s_chase_nulls = 0;
    s_chase_derivations = 0;
    s_role = 0;
    s_replicas_connected = 0;
    s_replication_lag_epochs = 0;
    s_journal_bytes = 0;
  }

let sanitize_line msg =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) msg

let print_response = function
  | Ok -> "OK"
  | Answers tuples ->
    Fmt.str "@[<v>ANSWERS %d%a@]" (List.length tuples)
      (Fmt.list ~sep:Fmt.nop (fun ppf t -> Fmt.pf ppf "@,%a" pp_tuple t))
      tuples
  | Committed { added; removed; epoch } -> Fmt.str "COMMITTED +%d -%d @%d" added removed epoch
  | Loaded n -> Fmt.str "LOADED %d" n
  | Stats_reply s ->
    Fmt.str "@[<v>STATS%a@]"
      (Fmt.list ~sep:Fmt.nop (fun ppf (key, get, _) -> Fmt.pf ppf "@,%s %d" key (get s)))
      stats_fields
  | Following epoch -> Fmt.str "FOLLOWING @%d" epoch
  | Snap { sn_epoch; sn_bytes } ->
    (* Like LOAD: a textual header, then opaque bytes — the byte count
       travels in the header because the body may contain anything. *)
    Fmt.str "SNAP %d %d\n" sn_epoch (String.length sn_bytes) ^ sn_bytes
  | Journal_rec { jr_epoch; jr_delta } ->
    Fmt.str "JOURNAL %d\n%s" jr_epoch (Fmt.to_to_string Delta.pp jr_delta)
  | Role_reply { rr_primary; rr_epoch; rr_lag; rr_primary_addr } ->
    Fmt.str "ROLE %s @%d%s%s"
      (if rr_primary then "primary" else "replica")
      rr_epoch
      (if rr_primary then "" else Fmt.str " lag=%d" rr_lag)
      (match rr_primary_addr with
      | Some addr -> " primary=" ^ sanitize_line addr
      | None -> "")
  | Failed msg -> "ERROR " ^ sanitize_line msg
  | Bye -> "BYE"

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let ( let* ) r f = Result.bind r f

(* Run a parser that signals failures by exception, converting them to
   [Error] so a malformed request can never kill a connection. *)
let guard what f =
  match f () with
  | v -> Stdlib.Ok v
  | exception Parser.Parse_error m -> Error (Fmt.str "%s: %s" what m)
  | exception (Invalid_argument m | Failure m) -> Error (Fmt.str "%s: %s" what m)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '?'

let is_ident s = s <> "" && String.for_all is_ident_char s

(* Strip one optional trailing dot (facts conventionally end in one). *)
let strip_dot s =
  let s = String.trim s in
  let n = String.length s in
  if n > 0 && s.[n - 1] = '.' then String.trim (String.sub s 0 (n - 1)) else s

let parse_fact what text =
  let* a = guard what (fun () -> Parser.atom_of_string (strip_dot text)) in
  if Atom.is_ground a then Stdlib.Ok a else Error (Fmt.str "%s: fact %a is not ground" what Atom.pp a)

let parse_query text =
  let text = String.trim text in
  if String.contains text '(' then
    let* a = guard "query" (fun () -> Parser.atom_of_string (strip_dot text)) in
    if Atom.ann a <> [] then Error "query: annotated relations are not servable"
    else Stdlib.Ok (Query { rel = Atom.rel a; pattern = Some (Atom.args a) })
  else if is_ident text then Stdlib.Ok (Query { rel = text; pattern = None })
  else Error (Fmt.str "query: expected a relation name, got %S" text)

let parse_cq text =
  let* (u, rel) = guard "cq" (fun () -> Guarded_cq.Ucq.of_string text) in
  Stdlib.Ok (Cq (u, rel))

(* The first whitespace-separated word, uppercased, and the rest. *)
let split_keyword line =
  match String.index_opt line ' ' with
  | None -> (String.uppercase_ascii line, "")
  | Some i ->
    ( String.uppercase_ascii (String.sub line 0 i),
      String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> Stdlib.Ok n
  | None -> Error (Fmt.str "%s: expected an integer, got %S" what s)

(* [LOAD <n>\n<codec fact block>]: the payload is binary past the
   header line, so it must be dissected before any trimming. Only the
   header is validated here — the block itself is decoded at COMMIT, on
   the state's writer thread, so a multi-megabyte block never stalls
   the reactor (see {!facts_of_load}). *)
let parse_load payload =
  match String.index_opt payload '\n' with
  | None -> Error "load: expected LOAD <count>, a newline, then the binary fact block"
  | Some nl -> (
    let header = String.trim (String.sub payload 0 nl) in
    let block = String.sub payload (nl + 1) (String.length payload - nl - 1) in
    match split_keyword header with
    | "LOAD", count ->
      let* n = parse_int "load" count in
      if n < 0 then Error "load: negative fact count"
      else Stdlib.Ok (Load { fb_count = n; fb_block = block })
    | kw, _ -> Error (Fmt.str "load: malformed header %S" kw))

let load_of_facts facts =
  let buf = Buffer.create (16 + (16 * List.length facts)) in
  Codec.write_fact_block buf facts;
  Load { fb_count = List.length facts; fb_block = Buffer.contents buf }

let facts_of_load b =
  let src = Codec.source_of_string b.fb_block in
  match
    let facts = Codec.read_fact_block src b.fb_count in
    Codec.expect_end src;
    facts
  with
  | facts -> Stdlib.Ok facts
  | exception Codec.Corrupt m -> Error (Fmt.str "load: corrupt fact block: %s" m)

let is_load payload =
  String.length payload >= 5 && String.uppercase_ascii (String.sub payload 0 4) = "LOAD"
  && (payload.[4] = ' ' || payload.[4] = '\n')

let parse_request payload =
  if is_load payload then parse_load payload
  else
  let line = String.trim payload in
  if line = "" then Error "empty request"
  else if String.length line >= 2 && String.sub line 0 2 = "??" then
    parse_cq (String.sub line 2 (String.length line - 2))
  else if line.[0] = '?' then parse_query (String.sub line 1 (String.length line - 1))
  else if line.[0] = '+' then
    let* a = parse_fact "add" (String.sub line 1 (String.length line - 1)) in
    Stdlib.Ok (Add a)
  else if line.[0] = '-' then
    let* a = parse_fact "remove" (String.sub line 1 (String.length line - 1)) in
    Stdlib.Ok (Remove a)
  else
    match split_keyword line with
    | "COMMIT", "" -> Stdlib.Ok Commit
    | "STATS", "" -> Stdlib.Ok Stats
    | "QUIT", "" | "EXIT", "" -> Stdlib.Ok Quit
    | "SNAPSHOT", "" -> Stdlib.Ok (Snapshot None)
    | "SNAPSHOT", path -> Stdlib.Ok (Snapshot (Some path))
    | "FOLLOW", since ->
      let* since = parse_int "follow" since in
      if since < -1 then Error "follow: the resume epoch cannot be below -1"
      else Stdlib.Ok (Follow since)
    | "ROLE", "" -> Stdlib.Ok Role
    | "PROMOTE", "" -> Stdlib.Ok Promote
    | "LOAD", _ -> Error "load: expected LOAD <count>, a newline, then the binary fact block"
    | kw, _ -> Error (Fmt.str "unknown request %S" kw)

(* A tuple line "(t1, ..., tk)" parses by dressing it up as an atom. *)
let parse_tuple line =
  let* a = guard "tuple" (fun () -> Parser.atom_of_string ("tuple" ^ String.trim line)) in
  Stdlib.Ok (Atom.args a)

let rec map_result f = function
  | [] -> Stdlib.Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Stdlib.Ok (y :: ys)

let parse_stats lines =
  let* s =
    List.fold_left
      (fun acc line ->
        let* s = acc in
        match String.index_opt line ' ' with
        | None -> Error (Fmt.str "stats: malformed line %S" line)
        | Some i ->
          let key = String.sub line 0 i in
          let* v = parse_int "stats" (String.sub line (i + 1) (String.length line - i - 1)) in
          (match List.find_opt (fun (k, _, _) -> String.equal k key) stats_fields with
          | Some (_, _, set) -> Stdlib.Ok (set s v)
          | None -> Error (Fmt.str "stats: unknown key %S" key)))
      (Stdlib.Ok zero_stats) lines
  in
  Stdlib.Ok (Stats_reply s)

(* [SNAP <epoch> <n>\n<bytes>]: the body is the raw snapshot image
   (arbitrary bytes, including newlines), so like LOAD it must be
   dissected before any line splitting. *)
let parse_snap payload =
  match String.index_opt payload '\n' with
  | None -> Error "snap: expected SNAP <epoch> <bytes>, a newline, then the image"
  | Some nl -> (
    let header = String.trim (String.sub payload 0 nl) in
    let body = String.sub payload (nl + 1) (String.length payload - nl - 1) in
    match split_keyword header with
    | "SNAP", detail -> (
      match String.split_on_char ' ' detail with
      | [ e; n ] ->
        let* sn_epoch = parse_int "snap" e in
        let* n = parse_int "snap" n in
        if n <> String.length body then
          Error (Fmt.str "snap: %d bytes declared, %d present" n (String.length body))
        else Stdlib.Ok (Snap { sn_epoch; sn_bytes = body })
      | _ -> Error (Fmt.str "snap: malformed header %S" header))
    | kw, _ -> Error (Fmt.str "snap: malformed header %S" kw))

(* [JOURNAL <epoch>\n<delta text>]: the body is a {!Delta.of_string}
   document and may span many lines inside the one frame. *)
let parse_journal payload =
  match String.index_opt payload '\n' with
  | None -> (
    match split_keyword (String.trim payload) with
    | "JOURNAL", e ->
      let* jr_epoch = parse_int "journal" e in
      Stdlib.Ok (Journal_rec { jr_epoch; jr_delta = Delta.empty })
    | kw, _ -> Error (Fmt.str "journal: malformed header %S" kw))
  | Some nl -> (
    let header = String.trim (String.sub payload 0 nl) in
    let body = String.sub payload (nl + 1) (String.length payload - nl - 1) in
    match split_keyword header with
    | "JOURNAL", e ->
      let* jr_epoch = parse_int "journal" e in
      let* jr_delta = guard "journal" (fun () -> Delta.of_string body) in
      Stdlib.Ok (Journal_rec { jr_epoch; jr_delta })
    | kw, _ -> Error (Fmt.str "journal: malformed header %S" kw))

(* "ROLE primary @E [primary=ADDR]" / "ROLE replica @E lag=N
   [primary=ADDR]" — the address comes last and may contain spaces
   (Unix-socket paths), so it is cut off the tail first. *)
let parse_role detail =
  let detail = String.trim detail in
  let rr_primary_addr, head =
    let pat = " primary=" in
    let n = String.length detail and plen = String.length pat in
    let rec find i =
      if i + plen > n then None
      else if String.sub detail i plen = pat then Some i
      else find (i + 1)
    in
    match find 0 with
    | Some i ->
      (Some (String.sub detail (i + plen) (n - i - plen)), String.trim (String.sub detail 0 i))
    | None -> (None, detail)
  in
  let with_epoch who e rest =
    if not (String.length e > 1 && e.[0] = '@') then
      Error (Fmt.str "role: expected @epoch, got %S" e)
    else
      let* rr_epoch = parse_int "role" (String.sub e 1 (String.length e - 1)) in
      let* rr_lag =
        match rest with
        | [] -> Stdlib.Ok 0
        | [ l ] when String.length l > 4 && String.sub l 0 4 = "lag=" ->
          parse_int "role" (String.sub l 4 (String.length l - 4))
        | _ -> Error (Fmt.str "role: malformed detail %S" detail)
      in
      Stdlib.Ok (Role_reply { rr_primary = who = "primary"; rr_epoch; rr_lag; rr_primary_addr })
  in
  match String.split_on_char ' ' head |> List.filter (fun s -> s <> "") with
  | who :: e :: rest when (who = "primary" || who = "replica") && List.length rest <= 1 ->
    with_epoch who e rest
  | _ -> Error (Fmt.str "role: malformed detail %S" detail)

let response_keyword_is payload kw =
  let n = String.length kw in
  String.length payload > n
  && String.uppercase_ascii (String.sub payload 0 n) = kw
  && (payload.[n] = ' ' || payload.[n] = '\n')

let parse_response payload =
  if response_keyword_is payload "SNAP" then parse_snap payload
  else if response_keyword_is payload "JOURNAL" then parse_journal payload
  else
  match String.split_on_char '\n' payload with
  | [] -> Error "empty response"
  | first :: rest -> (
    match split_keyword (String.trim first) with
    | "OK", "" -> Stdlib.Ok Ok
    | "BYE", "" -> Stdlib.Ok Bye
    | "ERROR", msg -> Stdlib.Ok (Failed msg)
    | "ANSWERS", n ->
      let* n = parse_int "answers" n in
      if n <> List.length rest then
        Error (Fmt.str "answers: %d tuples declared, %d present" n (List.length rest))
      else
        let* tuples = map_result parse_tuple rest in
        Stdlib.Ok (Answers tuples)
    | "COMMITTED", detail -> (
      match String.split_on_char ' ' detail with
      | [ a; r; e ]
        when String.length a > 0 && a.[0] = '+' && String.length r > 0 && r.[0] = '-'
             && String.length e > 0 && e.[0] = '@' ->
        let* added = parse_int "committed" (String.sub a 1 (String.length a - 1)) in
        let* removed = parse_int "committed" (String.sub r 1 (String.length r - 1)) in
        let* epoch = parse_int "committed" (String.sub e 1 (String.length e - 1)) in
        Stdlib.Ok (Committed { added; removed; epoch })
      | _ -> Error (Fmt.str "committed: malformed detail %S" detail))
    | "LOADED", n ->
      let* n = parse_int "loaded" n in
      Stdlib.Ok (Loaded n)
    | "STATS", "" -> parse_stats rest
    | "FOLLOWING", e when String.length e > 1 && e.[0] = '@' ->
      let* epoch = parse_int "following" (String.sub e 1 (String.length e - 1)) in
      Stdlib.Ok (Following epoch)
    | "ROLE", detail when rest = [] -> parse_role detail
    | kw, _ -> Error (Fmt.str "unknown response %S" kw))

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

exception Protocol_error of string

let max_frame = 64 * 1024 * 1024

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n = Unix.write fd bytes off len in
    write_all fd bytes (off + n) (len - n)
  end

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then raise (Protocol_error (Fmt.str "frame of %d bytes exceeds the limit" n));
  let buf = Bytes.create (4 + n) in
  Bytes.set_uint8 buf 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 buf 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 buf 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 buf 3 (n land 0xff);
  Bytes.blit_string payload 0 buf 4 n;
  write_all fd buf 0 (4 + n)

(* Read exactly [len] bytes; [None] on EOF before the first byte when
   [at_start], a protocol error on EOF mid-value. *)
let read_exactly fd len ~at_start =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then Some buf
    else
      match Unix.read fd buf off (len - off) with
      | 0 ->
        if off = 0 && at_start then None
        else raise (Protocol_error (Fmt.str "truncated frame: EOF after %d of %d bytes" off len))
      | n -> go (off + n)
  in
  go 0

let read_frame fd =
  match read_exactly fd 4 ~at_start:true with
  | None -> None
  | Some hdr ->
    let n =
      (Bytes.get_uint8 hdr 0 lsl 24)
      lor (Bytes.get_uint8 hdr 1 lsl 16)
      lor (Bytes.get_uint8 hdr 2 lsl 8)
      lor Bytes.get_uint8 hdr 3
    in
    if n > max_frame then
      raise (Protocol_error (Fmt.str "declared frame of %d bytes exceeds the limit" n));
    (match read_exactly fd n ~at_start:false with
    | Some payload -> Some (Bytes.to_string payload)
    | None -> assert false)
