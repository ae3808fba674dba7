(** Semi-naive bottom-up evaluation of Datalog programs.

    Standard differential fixpoint: a first naive round evaluates every
    rule against the input database; afterwards a rule only re-fires on
    joins that use at least one fact derived in the previous round.
    A precomputed relation→rules index keeps each round linear in the
    rules actually affected: only rules whose body mentions a relation
    present in the current delta are revisited. Negation must be
    semipositive (negated relations are never derived), which is what
    the per-stratum evaluation of stratified theories needs; negative
    literals are then absence checks against facts that are static
    throughout the fixpoint. *)

open Guarded_core

let check_datalog sigma =
  List.iter
    (fun r ->
      if not (Rule.is_datalog r) then
        invalid_arg (Fmt.str "Seminaive.eval: existential rule %a" Rule.pp r))
    (Theory.rules sigma)

let mentions_acdom sigma =
  Theory.Rel_set.mem (Database.acdom_rel, 0, 1) (Theory.relations sigma)

(* A rule prepared for delta evaluation: for every positive body
   position, the anchor atom paired with the remaining body atoms and
   the join plan for that rest — rest lists and plans are computed once
   here, not per candidate fact. *)
type prepared = {
  p_rule : Rule.t;
  p_negs : Atom.t list;
  p_anchors : (Atom.t * Atom.t list * Planner.plan) list;
  p_body : Atom.t list;
  p_exec : Planner.plan;  (** plan for the full body (naive rounds) *)
}

let prepare ?join rule =
  let body = Rule.body_atoms rule in
  {
    p_rule = rule;
    p_negs = Rule.neg_body_atoms rule;
    p_anchors =
      List.mapi
        (fun i a ->
          let rest = List.filteri (fun j _ -> j <> i) body in
          (a, rest, Planner.plan ?join rest))
        body;
    p_body = body;
    p_exec = Planner.plan ?join body;
  }

(* Dispatch one body join on its plan: estimator-ordered binary joins
   or the worst-case-optimal executor. *)
let iter_join ?init plan atoms db k =
  match (plan : Planner.plan) with
  | Planner.Binary -> Homomorphism.iter_pos ?init atoms db k
  | Planner.Wcoj order -> Wcoj.iter_pos ?init ~order atoms db k

(* The delta rule index: relation id -> indexes of the prepared rules
   whose positive body mentions it. A round touches only the union of
   the entries for the delta's relations. *)
let rule_index (prepared : prepared array) =
  let tbl : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun idx p ->
      let seen = Hashtbl.create 4 in
      List.iter
        (fun a ->
          let rid = Atom.rel_id a in
          if not (Hashtbl.mem seen rid) then begin
            Hashtbl.add seen rid ();
            match Hashtbl.find_opt tbl rid with
            | Some l -> l := idx :: !l
            | None -> Hashtbl.add tbl rid (ref [ idx ])
          end)
        p.p_body)
    prepared;
  tbl

(* Rules affected by [delta], in rule order, each at most once. *)
let affected_rules index (prepared : prepared array) delta =
  let marked = Array.make (Array.length prepared) false in
  List.iter
    (fun rid ->
      match Hashtbl.find_opt index rid with
      | None -> ()
      | Some l -> List.iter (fun idx -> marked.(idx) <- true) !l)
    (Database.relation_ids delta);
  marked

let negs_ok db negs subst =
  List.for_all
    (fun a ->
      let a' = Subst.apply_atom subst a in
      if not (Atom.is_ground a') then
        invalid_arg (Fmt.str "Seminaive.eval: unsafe negative literal %a" Atom.pp a');
      not (Database.mem db a'))
    negs

(* Fire [p] for every homomorphism of its body that maps the selected
   body atom into [delta] and the others into [db]; add head instances to
   [db] and to [acc_delta]. *)
let fire_with_delta p db delta acc_delta =
  let fire subst =
    if negs_ok db p.p_negs subst then
      List.iter
        (fun h ->
          let fact = Subst.apply_atom subst h in
          if Database.add db fact then ignore (Database.add acc_delta fact))
        (Rule.head p.p_rule)
  in
  (* One pass per body-atom position anchored in the delta. *)
  List.iter
    (fun (anchor, rest, plan) ->
      if Database.rel_cardinal delta (Atom.rel_key anchor) > 0 then
        Database.iter_candidates delta anchor (fun fact ->
            match Subst.match_atom Subst.empty anchor fact with
            | None -> ()
            | Some subst -> iter_join ~init:subst plan rest db fire))
    p.p_anchors

let fire_naive p db acc_delta =
  iter_join p.p_exec p.p_body db (fun subst ->
      if negs_ok db p.p_negs subst then
        List.iter
          (fun h ->
            let fact = Subst.apply_atom subst h in
            if Database.add db fact then ignore (Database.add acc_delta fact))
          (Rule.head p.p_rule))

(* ------------------------------------------------------------------ *)
(* Parallel rounds.

   The pool variant runs the same differential fixpoint with one
   change: within a round, firings match against an immutable snapshot
   of the database (the state at the round barrier) instead of seeing
   facts added earlier in the same round. Each work unit — a (rule,
   anchor) pair for delta rounds, a whole rule for the first naive
   round — collects its derived head instances into a private buffer;
   at the barrier the buffers are merged sequentially in canonical
   (rule, anchor, enumeration) order, deduplicating through
   [Database.add]. A fact derived mid-round re-enters through the next
   delta, so the fixpoint is the same set the sequential schedule
   reaches, and the round contents are a function of (db, delta) alone
   — independent of the domain count and of scheduling. *)

(* Derived head instances of [p] anchored in [delta] at [anchor], in
   enumeration order. Reads [db]/[delta] only; never mutates. *)
let collect_with_delta p db delta (anchor, rest, plan) =
  let acc = ref [] in
  Database.iter_candidates delta anchor (fun fact ->
      match Subst.match_atom Subst.empty anchor fact with
      | None -> ()
      | Some subst ->
        iter_join ~init:subst plan rest db (fun subst ->
            if negs_ok db p.p_negs subst then
              List.iter
                (fun h -> acc := Subst.apply_atom subst h :: !acc)
                (Rule.head p.p_rule)));
  List.rev !acc

let collect_naive p db =
  let acc = ref [] in
  iter_join p.p_exec p.p_body db (fun subst ->
      if negs_ok db p.p_negs subst then
        List.iter (fun h -> acc := Subst.apply_atom subst h :: !acc) (Rule.head p.p_rule));
  List.rev !acc

(* Merge the per-unit buffers into [db] in canonical order; new facts
   also land in [delta]. *)
let merge_buffers db delta buffers =
  Array.iter
    (fun facts ->
      List.iter (fun fact -> if Database.add db fact then ignore (Database.add delta fact)) facts)
    buffers

(* The dispatch width of a round is its rule-anchor unit count, but the
   work is proportional to the facts those units will scan: a round
   over a tiny delta is pure pool overhead however many units it has.
   The pool's element threshold is therefore re-read as a fact
   threshold here — rounds below it run their units sequentially
   ([~min_work:1] then forces the dispatch for the rounds above it). *)
let round_min_work pool work =
  if work >= Guarded_par.Pool.min_work pool then 1 else max_int

let eval_rounds_parallel pool prepared index db =
  let delta = Database.create () in
  let buffers =
    Guarded_par.Pool.parallel_map
      ~min_work:(round_min_work pool (Database.cardinal db))
      (Some pool)
      (fun p -> collect_naive p db)
      prepared
  in
  merge_buffers db delta buffers;
  let current = ref delta in
  while Database.cardinal !current > 0 do
    let delta = !current in
    let marked = affected_rules index prepared delta in
    let units = ref [] in
    Array.iteri
      (fun idx p ->
        if marked.(idx) then
          List.iter
            (fun ((anchor, _, _) as unit) ->
              if Database.rel_cardinal delta (Atom.rel_key anchor) > 0 then
                units := (p, unit) :: !units)
            p.p_anchors)
      prepared;
    let units = Array.of_list (List.rev !units) in
    let buffers =
      Guarded_par.Pool.parallel_map
        ~min_work:(round_min_work pool (Database.cardinal delta))
        (Some pool)
        (fun (p, unit) -> collect_with_delta p db delta unit)
        units
    in
    let next = Database.create () in
    merge_buffers db next buffers;
    current := next
  done

(* Evaluate [sigma] over [db0] and return the fixpoint (input included).
   When the program mentions the built-in ACDom relation, it is
   materialized from the input's active domain first. Passing [?pool]
   distributes each round's firings over the pool's domains; the
   resulting fixpoint is identical (the fact set is unique), and the
   default [None] keeps the sequential schedule byte-for-byte. *)
let eval ?(acdom = true) ?pool ?join (sigma : Theory.t) (db0 : Database.t) =
  check_datalog sigma;
  if not (Stratify.is_semipositive sigma) then
    invalid_arg "Seminaive.eval: program is not semipositive; use Stratified.chase";
  let db = Database.copy db0 in
  if acdom && mentions_acdom sigma then Database.materialize_acdom db;
  let prepared = Array.of_list (List.map (prepare ?join) (Theory.rules sigma)) in
  let index = rule_index prepared in
  (match pool with
  | Some pool -> eval_rounds_parallel pool prepared index db
  | None ->
    let delta = Database.create () in
    Array.iter (fun p -> fire_naive p db delta) prepared;
    let current = ref delta in
    while Database.cardinal !current > 0 do
      let next = Database.create () in
      let marked = affected_rules index prepared !current in
      Array.iteri (fun idx p -> if marked.(idx) then fire_with_delta p db !current next) prepared;
      current := next
    done);
  db

let answers ?pool (sigma : Theory.t) (db : Database.t) ~query =
  Database.constant_tuples (eval ?pool sigma db) query

(* ------------------------------------------------------------------ *)
(* Reusable engine.

   Incremental maintenance (lib/incr) evaluates the same program over a
   long-lived database many times; the prepared rules and the delta rule
   index are input-independent, so they are built once into an [engine]
   and reused across update batches. The engine also exposes the two
   building blocks of DRed maintenance: in-place delta insertion and
   the seeded head enumeration of overdeletion. *)

type engine = {
  e_prepared : prepared array;
  e_index : (int, int list ref) Hashtbl.t;
  e_theory : Theory.t;
}

let engine ?join (sigma : Theory.t) =
  check_datalog sigma;
  if not (Stratify.is_semipositive sigma) then
    invalid_arg "Seminaive.engine: program is not semipositive";
  let prepared = Array.of_list (List.map (prepare ?join) (Theory.rules sigma)) in
  { e_prepared = prepared; e_index = rule_index prepared; e_theory = sigma }

let engine_theory e = e.e_theory

(* Insert [facts] into [db] in place and run delta rounds to the new
   fixpoint. Returns every fact that was actually added (effective
   seeds and derived facts), in addition order. The rounds are the same
   differential schedule as {!eval}; with [?pool] they use the
   snapshot-and-merge parallel rounds, so the resulting set is
   identical for every domain count. *)
let delta_insert ?pool (e : engine) (db : Database.t) (facts : Atom.t list) =
  let added = ref [] in
  let delta = Database.create () in
  List.iter
    (fun f ->
      if Database.add db f then begin
        ignore (Database.add delta f);
        added := f :: !added
      end)
    facts;
  let current = ref delta in
  while Database.cardinal !current > 0 do
    let delta = !current in
    let next = Database.create () in
    let marked = affected_rules e.e_index e.e_prepared delta in
    (match pool with
    | None ->
      Array.iteri
        (fun idx p -> if marked.(idx) then fire_with_delta p db delta next)
        e.e_prepared
    | Some pool ->
      let units = ref [] in
      Array.iteri
        (fun idx p ->
          if marked.(idx) then
            List.iter
              (fun ((anchor, _, _) as unit) ->
                if Database.rel_cardinal delta (Atom.rel_key anchor) > 0 then
                  units := (p, unit) :: !units)
              p.p_anchors)
        e.e_prepared;
      let units = Array.of_list (List.rev !units) in
      let buffers =
        Guarded_par.Pool.parallel_map
          ~min_work:(round_min_work pool (Database.cardinal delta))
          (Some pool)
          (fun (p, unit) -> collect_with_delta p db delta unit)
          units
      in
      merge_buffers db next buffers);
    Database.iter (fun f -> added := f :: !added) next;
    current := next
  done;
  List.rev !added

(* ------------------------------------------------------------------ *)
(* Seeded head enumeration: DRed's overdeletion step. *)

(* The instantiated heads of every rule instance with at least one
   premise matched in [seed] (the anchor) and the remaining premises
   matched in [db]; negative literals are checked against [db]. A head
   is reported once per instance and anchor position, so callers
   collect heads into a set. With [?pool] the anchored units are
   enumerated in parallel into buffers and [f] runs sequentially in
   canonical unit order. *)
let iter_seeded_heads ?pool (e : engine) ~(seed : Database.t) ~(db : Database.t) f =
  let marked = affected_rules e.e_index e.e_prepared seed in
  let units = ref [] in
  Array.iteri
    (fun idx p ->
      if marked.(idx) then
        List.iter
          (fun ((anchor, _, _) as unit) ->
            if Database.rel_cardinal seed (Atom.rel_key anchor) > 0 then
              units := (p, unit) :: !units)
          p.p_anchors)
    e.e_prepared;
  let units = Array.of_list (List.rev !units) in
  let collect emit (p, (anchor, rest, plan)) =
    let heads = Rule.head p.p_rule in
    Database.iter_candidates seed anchor (fun fact ->
        match Subst.match_atom Subst.empty anchor fact with
        | None -> ()
        | Some subst ->
          iter_join ~init:subst plan rest db (fun subst ->
              if negs_ok db p.p_negs subst then
                List.iter (fun h -> emit (Subst.apply_atom subst h)) heads))
  in
  match pool with
  | None -> Array.iter (collect f) units
  | Some pool ->
    Guarded_par.Pool.parallel_map
      ~min_work:(round_min_work pool (Database.cardinal seed))
      (Some pool)
      (fun unit ->
        let acc = ref [] in
        collect (fun h -> acc := h :: !acc) unit;
        List.rev !acc)
      units
    |> Array.iter (List.iter f)
