(* The benchmark's in-process half. run.py drives it; every subcommand
   reads the generated inputs from a work directory and prints one JSON
   object on stdout.

     pb gen      write the workload's theory and database from a seed
     pb job      one cold batch job: theory + database text to q's answers
     pb oracle   the same answers through Pipeline.answer, for the check
     pb mirror   in-process mirror of a server: expected reply counts,
                 and (with --probe) per-layer timings on the same inputs
     pb loadgen  closed-loop load generator against a running server
     pb replay   sequential from-scratch replay of a write schedule

   Layer spans are recorded around calls into the repository's public
   functions only, kept in memory and written out at exit (--trace). *)

open Guarded_core
module Incr = Guarded_incr.Incr
module Delta = Guarded_incr.Delta
module Wire = Guarded_server.Wire
module Client = Guarded_server.Client
module State = Guarded_server.State
module Pipeline = Guarded_translate.Pipeline
module Seminaive = Guarded_datalog.Seminaive

(* Seconds on the CLOCK_MONOTONIC clock, with nanosecond resolution —
   the clock run.py reads with time.monotonic(), so times taken in
   different processes compare directly. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Spans and counts                                                    *)

module Trace = struct
  type span = { id : int; name : string; start : float; stop : float; parent : int; req : int }

  let on = ref false
  let lock = Mutex.create ()
  let spans = ref []
  let counts = ref []
  let next_id = ref 0
  let stack = ref [ 0 ]

  let fresh () =
    Mutex.protect lock (fun () ->
        incr next_id;
        !next_id)

  let record s = Mutex.protect lock (fun () -> spans := s :: !spans)
  let count name v = if !on then Mutex.protect lock (fun () -> counts := (name, v) :: !counts)

  (* A layer span around [f], nested under the innermost open span of
     the (single) calling thread; also counts the bytes [f] allocates.
     With tracing off it is a plain call. *)
  let layer name f =
    if not !on then f ()
    else begin
      let parent = List.hd !stack in
      let id = fresh () in
      stack := id :: !stack;
      let a0 = Gc.allocated_bytes () in
      let t0 = now () in
      let x = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
      let t1 = now () in
      let a1 = Gc.allocated_bytes () in
      record { id; name; start = t0; stop = t1; parent; req = 0 };
      count (name ^ "_alloc_mb") ((a1 -. a0) /. 1048576.);
      x
    end

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc "S\t%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent s.req s.name s.start
          s.stop)
      (List.rev !spans);
    List.iter (fun (n, v) -> Printf.fprintf oc "C\t%s\t%.17g\n" n v) (List.rev !counts);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* Peak resident set of this process, from the kernel's VmHWM. *)
let vm_hwm_kb () =
  match In_channel.with_open_bin "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> int_of_string n
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' text)

let tuple_text t = Fmt.str "(%a)" (Fmt.list ~sep:(Fmt.any ", ") Term.pp) t

let digest_tuples tuples =
  let lines = List.sort compare (List.map tuple_text tuples) in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let json_str s = Printf.sprintf "%S" s
let json_num f =
  if Float.is_nan f then "null"
  else if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%.17g" f

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

(* Percentile with linear interpolation between closest ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    let w = r -. float_of_int lo in
    (sorted.(lo) *. (1. -. w)) +. (sorted.(hi) *. w)
  end

let median_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 50.

(* Median over 11 rounds of the mean microseconds per call, each round
   calling [f] on every element of [inputs]. *)
let time_each_us inputs f =
  let n = float_of_int (List.length inputs) in
  median_of
    (List.init 11 (fun _ ->
         let t0 = now () in
         List.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
         (now () -. t0) *. 1e6 /. n))

let time_us n f = time_each_us (List.init n Fun.id) (fun _ -> f ())

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let args = ref []

let flag name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go !args

let str name = match flag name with Some v -> v | None -> failwith ("missing " ^ name)
let int name = int_of_string (str name)
let float_arg name = float_of_string (str name)

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)

(* The Thm. 1 frontier-guarded family: a non-guarded Datalog rule with
   [m] body atoms joined on an existential value. *)
let fg_family m =
  let body = String.concat ", " (List.init m (fun i -> Printf.sprintf "hasTopic(X%d, Z)" i)) in
  Printf.sprintf
    "publication(X) -> exists K1, K2. keywords(X, K1, K2).\n\
     keywords(X, K1, K2) -> hasTopic(X, K1).\n\
     %s -> shared(Z).\n\
     shared(Z), hasTopic(X0, Z), hasAuthor(X0, A) -> q(A).\n"
    body

(* The population every workload draws from: publication [i] has one
   or two authors out of [pubs/2] and one topic out of
   [pubs/per_topic]. Entity [i]'s facts depend on (seed, i) only, so
   the load generator, the mirror and the replay agree on every fact
   without sharing state. *)
type population = { seed : int; pubs : int; per_topic : int }

let population () = { seed = int "--seed"; pubs = int "--pubs"; per_topic = int "--per-topic" }
let authors p = max 1 (p.pubs / 2)
let topics p = max 1 (p.pubs / p.per_topic)
let const fmt = Printf.ksprintf (fun s -> Term.Const s) fmt

let entity p i =
  let r = Random.State.make [| p.seed; i |] in
  let pub = const "p%d" i in
  let a1 = Random.State.int r (authors p) and a2 = Random.State.int r (authors p) in
  let t = Random.State.int r (topics p) in
  List.sort_uniq Atom.compare
    [
      Atom.make "publication" [ pub ];
      Atom.make "hasAuthor" [ pub; const "a%d" a1 ];
      Atom.make "hasAuthor" [ pub; const "a%d" a2 ];
      Atom.make "hasTopic" [ pub; const "t%d" t ];
    ]

let entities p lo n = List.concat_map (entity p) (List.init n (fun j -> lo + j))

(* The write schedule of serve-write: [rounds] LOAD blocks of [block]
   fresh entities (indices from [base]), each retired again before the
   next, so every block meets the same database; and small batches,
   where batch [b] enrolls five fresh entities past every block and
   retires the five batch [b - 1] enrolled. The initial population (the
   lookup keys) never changes. *)
type schedule = { base : int; block : int; rounds : int }

let schedule p = { base = p.pubs; block = int "--load-entities"; rounds = int "--load-rounds" }
let load_block p s k = entities p (s.base + (k * s.block)) s.block

let small_batch p s b =
  let fresh = s.base + (s.block * s.rounds) in
  Delta.of_lists
    ~additions:(entities p (fresh + (5 * b)) 5)
    ~deletions:(if b = 0 then [] else entities p (fresh + (5 * (b - 1))) 5)

let batch_text d =
  String.concat ""
    (List.map (fun a -> Fmt.str "+%a.\n" Atom.pp a) d.Delta.additions
    @ List.map (fun a -> Fmt.str "-%a.\n" Atom.pp a) d.Delta.deletions)

(* The read mix's requests. *)
let lookup_req k = Wire.Query { rel = "hasAuthor"; pattern = Some [ const "p%d" k; Term.Var "A" ] }
let scan_req = Wire.Query { rel = "q"; pattern = None }

let cq_req t =
  let text = Printf.sprintf "hasTopic(X, t%d), hasAuthor(X, A) -> cq(A)." t in
  let u, rel = Guarded_cq.Ucq.of_string text in
  Wire.Cq (u, rel)

let gen () =
  let p = population () in
  let dir = str "--dir" in
  write_file (Filename.concat dir "theory.rules") (fg_family (int "--fg"));
  let b = Buffer.create (p.pubs * 80) in
  for i = 0 to p.pubs - 1 do
    List.iter (fun a -> Buffer.add_string b (Fmt.str "%a.\n" Atom.pp a)) (entity p i)
  done;
  write_file (Filename.concat dir "data.db") (Buffer.contents b);
  print_endline (json_obj [ ("facts", string_of_int (List.length (entities p 0 p.pubs))) ])

(* ------------------------------------------------------------------ *)
(* Batch pipeline: the public calls Pipeline.answer makes, one by one  *)

let layer = Trace.layer

(* Pipeline.to_datalog's route for the (nearly) frontier-guarded
   workload theories, with a span around each public call. *)
let to_datalog sigma =
  let budget = Pipeline.default_budget in
  let normalized = layer "core.normalize" (fun () -> Normalize.normalize sigma) in
  let lang = layer "core.classify" (fun () -> Classify.classify normalized) in
  let rew =
    match lang with
    | Classify.Frontier_guarded -> Guarded_translate.Rewrite_fg.rew_frontier_guarded
    | Classify.Nearly_frontier_guarded -> Guarded_translate.Rewrite_fg.rew_nearly_frontier_guarded
    | l -> failwith ("unexpected workload language " ^ Classify.language_name l)
  in
  let ng, es = layer "translate.rew" (fun () -> rew ~max_rules:budget.max_expansion_rules normalized) in
  let d, ss =
    layer "translate.dat" (fun () ->
        Guarded_translate.Saturate.dat_nearly_guarded ~max_rules:budget.max_saturation_rules ng)
  in
  let fi = float_of_int in
  Trace.count "translate.rew_rules" (fi es.Guarded_translate.Expansion.output_rules);
  Trace.count "translate.rew_processed" (fi es.processed);
  Trace.count "translate.closure_rules" (fi ss.Guarded_translate.Saturate.closure_rules);
  Trace.count "translate.resolutions" (fi ss.resolutions);
  Trace.count "translate.closure_yield" (fi ss.closure_rules /. Float.max 1. (fi ss.resolutions));
  Trace.count "translate.dat_rules" (fi (Theory.size d));
  d

(* Theory and database text to q's answers. Returns the answers and the
   time of the first layer call. *)
let batch_pipeline ttext dtext =
  let t_first = now () in
  let sigma = layer "core.parse_theory" (fun () -> Parser.theory_of_string ttext) in
  let db = layer "core.parse_db" (fun () -> Parser.database_of_string dtext) in
  let program = to_datalog sigma in
  let full = layer "datalog.eval" (fun () -> Seminaive.eval program db) in
  let answers = layer "datalog.answer" (fun () -> Database.constant_tuples full "q") in
  Trace.count "datalog.idb_facts" (float_of_int (Database.cardinal full - Database.cardinal db));
  (answers, t_first)

let answers_json answers extra =
  json_obj
    ([
       ("answers", string_of_int (List.length answers));
       ("digest", json_str (digest_tuples answers));
     ]
    @ extra)

let job () =
  let dir = str "--dir" in
  let trace = flag "--trace" in
  Trace.on := trace <> None;
  let ttext = read_file (Filename.concat dir "theory.rules") in
  let dtext = read_file (Filename.concat dir "data.db") in
  (* --setup-only: stop at the first layer call; run.py spawns many of
     these to time a cold job's set-up on more samples. *)
  if flag "--setup-only" <> None then begin
    print_endline (json_obj [ ("t_first", json_num (now ())) ]);
    exit 0
  end;
  let answers, t_first =
    match trace with
    | None -> batch_pipeline ttext dtext
    | Some _ -> layer "job" (fun () -> batch_pipeline ttext dtext)
  in
  Option.iter Trace.write trace;
  print_endline
    (answers_json answers
       [ ("t_first", json_num t_first); ("hwm_kb", string_of_int (vm_hwm_kb ())) ])

let oracle () =
  let dir = str "--dir" in
  let sigma = Parser.theory_of_string (read_file (Filename.concat dir "theory.rules")) in
  let db = Parser.database_of_string (read_file (Filename.concat dir "data.db")) in
  print_endline (answers_json (Pipeline.answer sigma db ~query:"q") [])

(* ------------------------------------------------------------------ *)
(* Mirror: what the server computes, in process                        *)

(* The server's [? REL(pattern)] dispatch (Server.pattern_answers),
   written against the same public Database calls. *)
let pattern_answers incr rel pattern =
  let pat = Atom.make rel pattern in
  let out = ref [] in
  Database.iter_candidates (Incr.db incr) pat (fun fact ->
      if Atom.ann fact = [] then
        match Subst.match_atom Subst.empty pat fact with
        | Some _ when List.for_all Term.is_const (Atom.args fact) -> out := Atom.args fact :: !out
        | _ -> ());
  List.sort_uniq (List.compare Term.compare) !out

let eval_on incr = function
  | Wire.Query { rel; pattern = None } -> Incr.answers incr ~query:rel
  | Wire.Query { rel; pattern = Some pat } -> pattern_answers incr rel pat
  | Wire.Cq (u, _) ->
    List.sort_uniq (List.compare Term.compare)
      (List.concat_map
         (fun (q : Guarded_cq.Cq.t) -> Incr.cq_answers incr ~body:q.body ~answer_vars:q.answer_vars)
         u.Guarded_cq.Ucq.disjuncts)
  | _ -> invalid_arg "eval_on"

(* Per-layer timings of the serving layers on this materialization;
   mutates it (loads and commits), so it runs after the expectations. *)
let probe_serving p m =
  let rng = Random.State.make [| p.seed; -1 |] in
  let key () = Random.State.int rng p.pubs in
  let c = Trace.count in
  c "incr.lookup_eval_us" (time_each_us (List.init 1000 (fun _ -> lookup_req (key ()))) (eval_on m));
  c "incr.scan_eval_us" (time_us 5 (fun () -> eval_on m scan_req));
  c "incr.cq_eval_us"
    (time_each_us (List.init 50 (fun _ -> cq_req (Random.State.int rng (topics p)))) (eval_on m));
  let encode_decode n rs =
    let resp = Wire.Answers (eval_on m rs) in
    let text = Wire.print_response resp in
    (time_us n (fun () -> Wire.print_response resp), time_us n (fun () -> Wire.parse_response text))
  in
  let enc, dec = encode_decode 5 scan_req in
  c "wire.encode_us" enc;
  c "wire.decode_us" dec;
  let lenc, ldec = encode_decode 1000 (lookup_req (key ())) in
  c "wire.lookup_encode_us" lenc;
  c "wire.lookup_decode_us" ldec;
  (* Bulk ingest: decode a LOAD block, then apply it. *)
  let facts = entities p (p.pubs + 1_000_000) 250 in
  (match Wire.load_of_facts facts with
  | Wire.Load fb ->
    let n = float_of_int fb.Wire.fb_count in
    c "codec.decode_us_per_kfact" (time_us 3 (fun () -> Wire.facts_of_load fb) /. n *. 1000.)
  | _ -> failwith "load_of_facts");
  let t0 = now () in
  ignore (Incr.apply m (Delta.of_lists ~additions:facts ~deletions:[]));
  c "incr.load_apply_ms" ((now () -. t0) *. 1000.);
  (* Small text batches, as serve-write commits them: parse, apply. *)
  let s = { base = p.pubs + 2_000_000; block = 200; rounds = 1 } in
  ignore (Incr.apply m (Delta.of_lists ~additions:(load_block p s 0) ~deletions:[]));
  let batches = List.init 21 (small_batch p s) in
  c "incr.delta_parse_us" (time_each_us (List.map batch_text batches) Delta.of_string);
  let results =
    List.map
      (fun d ->
        let t0 = now () in
        let r = Incr.apply m d in
        ((now () -. t0) *. 1000., r))
      batches
  in
  c "incr.apply_ms" (median_of (List.map fst results));
  let fr f = median_of (List.map (fun (_, r) -> float_of_int (f r)) results) in
  c "incr.added" (fr (fun r -> r.Incr.res_added));
  c "incr.removed" (fr (fun r -> r.Incr.res_removed));
  c "incr.fallback_strata" (fr (fun r -> r.Incr.res_fallback_strata));
  (* The same kind of batch through an in-process State: the difference
     to incr.apply_ms is queueing and the hand-off to the writer. *)
  let state = State.of_materialization m in
  let s = { s with base = p.pubs + 3_000_000 } in
  ignore (State.commit state (Delta.of_lists ~additions:(load_block p s 0) ~deletions:[]));
  c "state.commit_ms"
    (median_of
       (List.init 21 (fun b ->
            let t0 = now () in
            (match State.commit state (small_batch p s b) with
            | Ok _ -> ()
            | Error e -> failwith e);
            (now () -. t0) *. 1000.)));
  State.shutdown state

let mirror () =
  let p = population () in
  let dir = str "--dir" in
  let probe = flag "--probe" in
  Trace.on := probe <> None;
  let ttext = read_file (Filename.concat dir "theory.rules") in
  let dtext = read_file (Filename.concat dir "data.db") in
  (* With --probe, first time the public calls the server's start-up
     makes (the batch pipeline's layers, on this workload's inputs). *)
  if probe <> None && flag "--pipeline" <> Some "0" then
    ignore (layer "job" (fun () -> batch_pipeline ttext dtext));
  let sigma = Parser.theory_of_string ttext in
  let db = Parser.database_of_string dtext in
  let program = (Pipeline.serving_program sigma).Pipeline.served_program in
  let m = Incr.materialize program db in
  (* Expected reply sizes for every request the read mix can send. *)
  let b = Buffer.create (p.pubs * 12) in
  for k = 0 to p.pubs - 1 do
    Printf.bprintf b "L %d %d\n" k (List.length (eval_on m (lookup_req k)))
  done;
  for t = 0 to topics p - 1 do
    Printf.bprintf b "C %d %d\n" t (List.length (eval_on m (cq_req t)))
  done;
  Printf.bprintf b "S 0 %d\n" (List.length (eval_on m scan_req));
  write_file (str "--expected") (Buffer.contents b);
  Option.iter
    (fun path ->
      probe_serving p m;
      Trace.write path)
    probe;
  print_endline (json_obj [ ("facts", string_of_int (Database.cardinal (Incr.db m))) ])

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)

(* A growable float array per request kind. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) 0. in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let merge xs =
    let all = create () in
    List.iter (fun s -> for i = 0 to s.n - 1 do add all s.a.(i) done) xs;
    all

  let summary s =
    let a = Array.sub s.a 0 s.n in
    Array.sort compare a;
    json_obj
      [
        ("n", string_of_int s.n);
        ("p50", json_num (percentile a 50.));
        ("p90", json_num (percentile a 90.));
        ("p99", json_num (percentile a 99.));
      ]
end

type expected = { lookup : int array; cq : int array; scan : int }

let load_expected path p =
  let e = { lookup = Array.make p.pubs (-1); cq = Array.make (topics p) (-1); scan = -1 } in
  let scan = ref (-1) in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "L"; k; n ] -> e.lookup.(int_of_string k) <- int_of_string n
      | [ "C"; k; n ] -> e.cq.(int_of_string k) <- int_of_string n
      | [ "S"; _; n ] -> scan := int_of_string n
      | _ -> ())
    (String.split_on_char '\n' (read_file path));
  { e with scan = !scan }

(* One connection's tallies. *)
type conn_stats = {
  kinds : (string, Samples.t) Hashtbl.t;
  traced_lookup : Samples.t;  (* lookups timed while spans were recorded *)
  untraced_lookup : Samples.t;
  finished : Samples.t;  (* completion time of every answered request *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatched : int;
}

let new_stats () =
  {
    kinds = Hashtbl.create 8;
    traced_lookup = Samples.create ();
    untraced_lookup = Samples.create ();
    finished = Samples.create ();
    attempted = 0;
    failed = 0;
    mismatched = 0;
  }

let samples st kind =
  match Hashtbl.find_opt st.kinds kind with
  | Some s -> s
  | None ->
    let s = Samples.create () in
    Hashtbl.add st.kinds kind s;
    s

let tracing_enabled = ref false

(* In a traced run, spans are recorded in alternate quarter-second slices
   so the same run also measures lookups with tracing off: the
   difference is the tracing overhead. *)
let tracing_now () = !tracing_enabled && int_of_float (now () *. 4.) mod 2 = 0

(* One round trip, timed from the client side. [expect] is the reply
   size the mirror computed; [None] accepts any answer count. *)
let round_trip st c ~kind ~expect req =
  st.attempted <- st.attempted + 1;
  let traced = tracing_now () in
  let t0 = now () in
  match
    Client.send c req;
    Client.flush c;
    let t1 = now () in
    let resp = Client.recv c in
    (t1, resp)
  with
  | exception _ -> st.failed <- st.failed + 1
  | t1, resp -> (
    let t2 = now () in
    let us = (t2 -. t0) *. 1e6 in
    if traced then begin
      let id = Trace.fresh () in
      Trace.record { Trace.id; name = "request." ^ kind; start = t0; stop = t2; parent = 0; req = id };
      Trace.record
        { Trace.id = Trace.fresh (); name = "client.send"; start = t0; stop = t1; parent = id; req = id };
      Trace.record
        { Trace.id = Trace.fresh (); name = "client.wait"; start = t1; stop = t2; parent = id; req = id }
    end;
    match resp with
    | Wire.Failed _ -> st.failed <- st.failed + 1
    | Wire.Answers l when (match expect with Some n -> List.length l <> n | None -> false) ->
      st.mismatched <- st.mismatched + 1
    | _ ->
      Samples.add (samples st kind) us;
      Samples.add st.finished t2;
      if kind = "lookup" then
        Samples.add (if traced then st.traced_lookup else st.untraced_lookup) us)

type mix = { w_lookup : float; w_cq : float; w_scan : float }

let read_mix = { w_lookup = 0.975; w_cq = 0.01; w_scan = 0.005 }
let lookups_only = { w_lookup = 1.0; w_cq = 0.; w_scan = 0. }

let reader ~p ~exp ~mix ~rng ~running st c =
  while running () do
    let x = Random.State.float rng 1.0 in
    if x < mix.w_lookup then begin
      let k = Random.State.int rng p.pubs in
      round_trip st c ~kind:"lookup" ~expect:(Some exp.lookup.(k)) (lookup_req k)
    end
    else if x < mix.w_lookup +. mix.w_cq then begin
      let t = Random.State.int rng (topics p) in
      round_trip st c ~kind:"cq" ~expect:(Some exp.cq.(t)) (cq_req t)
    end
    else if x < mix.w_lookup +. mix.w_cq +. mix.w_scan then
      round_trip st c ~kind:"scan" ~expect:(Some exp.scan) scan_req
    else round_trip st c ~kind:"stats" ~expect:None Wire.Stats
  done

let connect () = Client.connect_unix (str "--socket")

(* Requests answered per second in each whole [window]-second slice of
   [t0, t1), from the completion times in [finished]: their quartiles
   and count. The median slice is the run's rate with stalls of the
   shared host left out, which a mean over the whole run keeps. *)
let window_rates finished t0 t1 window =
  let nwin = int_of_float ((t1 -. t0) /. window) in
  let counts = Array.make nwin 0 in
  for i = 0 to finished.Samples.n - 1 do
    let k = int_of_float ((finished.Samples.a.(i) -. t0) /. window) in
    if k >= 0 && k < nwin then counts.(k) <- counts.(k) + 1
  done;
  let rates = Array.map (fun c -> float_of_int c /. window) counts in
  Array.sort compare rates;
  json_obj
    [
      ("n", string_of_int nwin);
      ("p25", json_num (percentile rates 25.));
      ("p50", json_num (percentile rates 50.));
      ("p75", json_num (percentile rates 75.));
    ]

let final_state c =
  let rels = [ "publication"; "hasAuthor"; "hasTopic"; "q" ] in
  List.map (fun r -> (r, json_str (digest_tuples (Client.query c r)))) rels

let stats_json c =
  let s = Client.stats c in
  json_obj
    [
      ("query_p50_us", string_of_int s.Wire.s_query_p50_us);
      ("storage_bytes", string_of_int s.Wire.s_storage_bytes);
      ("index_runs", string_of_int s.Wire.s_index_runs);
    ]

let loadgen () =
  let p = population () in
  let exp = load_expected (str "--expected") p in
  let seconds = float_arg "--seconds" in
  let trace = flag "--trace" in
  tracing_enabled := trace <> None;
  let mode = str "--mix" in
  let rng k = Random.State.make [| p.seed; 7919; k |] in
  let st1 = new_stats () and st2 = new_stats () and quiet = new_stats () in
  let c1 = connect () and c2 = connect () in
  let extra = ref [] in
  let t_start = now () in
  (match mode with
  | "read" ->
    let deadline = now () +. seconds in
    reader ~p ~exp ~mix:read_mix ~rng:(rng 1) ~running:(fun () -> now () < deadline) st1 c1;
    extra := [ ("window_rps", window_rates st1.finished t_start deadline 0.1) ]
  | "write" ->
    let s = schedule p in
    (* [s.rounds] cycles, so every measurement is spread over the whole
       run: a quiet window of lookups (the base the lock wait is
       measured against; in a traced run the only traced requests, so
       spans cover the request path without lock wait), one bulk binary
       LOAD block then COMMIT, its retirement in one untimed text
       commit, then [per_half] back-to-back small commits on
       connection 1 alone and as many beside lookups on connection 2.
       A fixed count rather than a time keeps the server's work, and
       so its heap, the same on a fast host and a slow one; the
       cycle's share of the run still caps it. *)
    let per_half = max 1 (int_of_float (seconds /. 2.5)) in
    let tracing = !tracing_enabled in
    let committed = ref 0 in
    let per_cycle = ref [] in
    let loaded = ref 0 and load_time = ref 0. and load_rates = ref [] in
    for k = 0 to s.rounds - 1 do
      tracing_enabled := tracing;
      let quiet_end = now () +. 0.25 in
      reader ~p ~exp ~mix:lookups_only ~rng:(rng (100 + k)) ~running:(fun () -> now () < quiet_end) quiet c2;
      tracing_enabled := false;
      let facts = load_block p s k in
      st1.attempted <- st1.attempted + 1;
      let t0 = now () in
      (match Client.load c1 facts with
      | Ok n -> (
        match Client.request c1 Wire.Commit with
        | Wire.Committed _ ->
          loaded := !loaded + n;
          load_time := !load_time +. (now () -. t0);
          load_rates := (float_of_int n /. (now () -. t0)) :: !load_rates
        | _ -> st1.failed <- st1.failed + 1)
      | Error _ -> st1.failed <- st1.failed + 1);
      st1.attempted <- st1.attempted + 1;
      (match Client.commit c1 (Delta.of_lists ~additions:[] ~deletions:facts) with
      | Ok _ -> ()
      | Error _ | (exception _) -> st1.failed <- st1.failed + 1);
      (* At least 0.2 s of commits per cycle, should the load phases
         overrun the cycle's share on a slow host. *)
      let deadline =
        Float.max (t_start +. (seconds *. float_of_int (k + 1) /. float_of_int s.rounds)) (now () +. 0.2)
      in
      let writer kind n deadline () =
        for _ = 1 to n do
          if now () < deadline then begin
            let d = small_batch p s !committed in
            st1.attempted <- st1.attempted + 1;
            let t0 = now () in
            match Client.commit c1 d with
            | Ok _ ->
              Samples.add (samples st1 kind) ((now () -. t0) *. 1e6);
              incr committed
            | Error _ | (exception _) -> st1.failed <- st1.failed + 1
          end
        done
      in
      writer "commit" per_half (now () +. ((deadline -. now ()) /. 2.)) ();
      let writing = Atomic.make true in
      let ths =
        [
          Thread.create
            (fun () ->
              writer "commit_busy" per_half deadline ();
              Atomic.set writing false)
            ();
          Thread.create
            (fun () ->
              reader ~p ~exp ~mix:lookups_only ~rng:(rng (200 + k)) ~running:(fun () -> Atomic.get writing) st2 c2)
            ();
        ]
      in
      List.iter Thread.join ths;
      per_cycle := !committed :: !per_cycle
    done;
    let ints l = "[" ^ String.concat ", " (List.rev_map string_of_int l) ^ "]" in
    extra :=
      [
        ("quiet_lookup", Samples.summary (samples quiet "lookup"));
        ("ingest_facts_per_s", json_num (float_of_int !loaded /. !load_time));
        ("ingest_facts_per_s_p50", json_num (median_of !load_rates));
        ("batches", ints !per_cycle);
        ("final", json_obj (final_state c1));
      ]
  | m -> failwith ("unknown mix " ^ m));
  let elapsed = now () -. t_start in
  let stats = stats_json c1 in
  Client.close c1;
  Client.close c2;
  Option.iter Trace.write trace;
  let sts = [ st1; st2 ] in
  let base = if mode = "write" then [ quiet ] else sts in
  let kinds = List.sort_uniq compare (List.concat_map (fun st -> List.of_seq (Hashtbl.to_seq_keys st.kinds)) sts) in
  let sum f = List.fold_left (fun a st -> a + f st) 0 sts in
  print_endline
    (json_obj
       ([
          ( "kinds",
            json_obj
              (List.map
                 (fun k -> (k, Samples.summary (Samples.merge (List.map (fun st -> samples st k) sts))))
                 kinds) );
          ("traced_lookup", Samples.summary (Samples.merge (List.map (fun st -> st.traced_lookup) base)));
          ("untraced_lookup", Samples.summary (Samples.merge (List.map (fun st -> st.untraced_lookup) base)));
          ("attempted", string_of_int (sum (fun st -> st.attempted) + quiet.attempted));
          ("failed", string_of_int (sum (fun st -> st.failed) + quiet.failed));
          ("mismatched", string_of_int (sum (fun st -> st.mismatched) + quiet.mismatched));
          ("elapsed", json_num elapsed);
          ("stats", stats);
        ]
       @ !extra))

(* ------------------------------------------------------------------ *)
(* Replay: the write schedule applied in order, then evaluated from    *)
(* scratch                                                             *)

let replay () =
  let p = population () in
  let s = schedule p in
  let dir = str "--dir" in
  let sigma = Parser.theory_of_string (read_file (Filename.concat dir "theory.rules")) in
  let edb = Parser.database_of_string (read_file (Filename.concat dir "data.db")) in
  (* --batches: the cumulative count of small batches committed by the
     end of each cycle, as the load generator reports it. *)
  let ends = List.map int_of_string (String.split_on_char ',' (str "--batches")) in
  ignore
    (List.fold_left
       (fun (k, b0) b1 ->
         List.iter (fun a -> ignore (Database.add edb a)) (load_block p s k);
         List.iter (fun a -> ignore (Database.remove edb a)) (load_block p s k);
         for b = b0 to b1 - 1 do
           let d = small_batch p s b in
           List.iter (fun a -> ignore (Database.remove edb a)) d.Delta.deletions;
           List.iter (fun a -> ignore (Database.add edb a)) d.Delta.additions
         done;
         (k + 1, b1))
       (0, 0) ends);
  let program = (Pipeline.serving_program sigma).Pipeline.served_program in
  let full = Seminaive.eval program edb in
  let rels = [ "publication"; "hasAuthor"; "hasTopic"; "q" ] in
  print_endline
    (json_obj
       [
         ( "final",
           json_obj
             (List.map (fun r -> (r, json_str (digest_tuples (Database.constant_tuples full r)))) rels)
         );
       ])

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
    args := rest;
    match cmd with
    | "gen" -> gen ()
    | "job" -> job ()
    | "oracle" -> oracle ()
    | "mirror" -> mirror ()
    | "loadgen" -> loadgen ()
    | "replay" -> replay ()
    | c ->
      prerr_endline ("pb: unknown command " ^ c);
      exit 2)
  | _ ->
    prerr_endline "usage: pb (gen|job|oracle|mirror|loadgen|replay) --flag value ...";
    exit 2
