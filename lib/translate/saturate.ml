(** The saturation calculus of Figure 3 and the guarded-to-Datalog
    translation dat(Σ) (Definition 19, Theorem 3, Proposition 6).

    Ξ(Σ) closes Σ under three inference rules:
    - (project)  α → β ∧ A  yields  α → A   when A carries no
      existential variable;
    - (resolve)  from α → β and a Datalog rule γ1 ∧ γ2 → δ with a
      homomorphism h from γ2 into β such that vars(h(γ1)) ⊆ vars(α),
      derive α ∧ h(γ1) → β ∧ h(δ);
    - (unify)    α → β yields g(α) → g(β) for g : vars(α) → vars(α).

    dat(Σ) keeps the Datalog rules of the closure. Deduplication is up
    to variable renaming; the (unify) rule is applied through single
    merges x ↦ y, whose closure generates all non-injective g (injective
    g are renamings, hence no-ops modulo canonicalization). Heads and
    bodies are kept as sets. All derived rules stay guarded when the
    input is guarded, and no inference introduces variables, relations or
    constants, which bounds the closure as in the paper's counting
    argument; [max_rules] is a safety budget on top.

    {!closure} runs an indexed given-clause loop: committed rules carry
    a commit sequence number and live in relation-signature indexes
    (Datalog rules by body relation, existential rules by head
    relation), so resolution partners are retrieved by lookup instead
    of scanning the closure, each unordered pair is combined exactly
    once (by the later rule, against partners with smaller sequence
    numbers), and candidate generation for a whole round can fan out
    over a {!Guarded_par.Pool} while the commit phase stays sequential
    and deterministic. {!closure_reference} keeps the seed's
    snapshot-based loop as an independent oracle. *)

open Guarded_core
module Pool = Guarded_par.Pool

exception Budget_exceeded of string

type stats = {
  input_rules : int;
  closure_rules : int;
  datalog_rules : int;
  resolutions : int;
}

let dedup_atoms atoms = Atom.Set.elements (Atom.Set.of_list atoms)

let make_rule ?label body head evars_set =
  let head = dedup_atoms head in
  let evars =
    Names.Sset.elements
      (Names.Sset.inter evars_set
         (List.fold_left (fun acc a -> Names.Sset.union acc (Atom.var_set a)) Names.Sset.empty head))
  in
  Rule.make_pos ?label (dedup_atoms body) head ~evars

(* (project): one rule per head atom without existential variables. *)
let project r =
  if Rule.is_datalog r && List.length (Rule.head r) = 1 then []
  else
    List.filter_map
      (fun a ->
        if Names.Sset.is_empty (Names.Sset.inter (Atom.var_set a) (Rule.evars r)) then
          Some (make_rule (Rule.body_atoms r) [ a ] Names.Sset.empty)
        else None)
      (Rule.head r)

(* (unify): all single merges x ↦ y over the body variables. Applying
   it to Datalog rules is pointless — g(α) → g(β) is an instance whose
   ground consequences the Datalog evaluation produces anyway — so only
   rules with existential variables are unified. *)
let unify r =
  if Rule.is_datalog r then []
  else
  let vars = Names.Sset.elements (Rule.uvars r) in
  List.concat_map
    (fun x ->
      List.filter_map
        (fun y ->
          if String.equal x y then None
          else begin
            let g = Subst.singleton x (Term.Var y) in
            Some
              (make_rule
                 (Subst.apply_atoms g (Rule.body_atoms r))
                 (Subst.apply_atoms g (Rule.head r))
                 (Rule.evars r))
          end)
        vars)
    vars

(* All non-empty sublists of [l] paired with their complement. *)
let rec splits = function
  | [] -> [ ([], []) ]
  | x :: rest ->
    List.concat_map
      (fun (inside, outside) -> [ (x :: inside, outside); (inside, x :: outside) ])
      (splits rest)

(* (resolve): combine [r] (α → β) with the Datalog rule [d]
   (γ1 ∧ γ2 → δ). [d] is renamed apart first, with [gensym]: the fresh
   names never reach the produced rules (h and its extensions bind
   every partner variable into [r]'s variables — Datalog safety puts
   vars(δ) inside vars(γ1 ∧ γ2)), they only keep the partner
   variable-disjoint during matching. The indexed closure hands each
   generation task a private gensym because {!Names.gensym} state is
   not domain-safe.

   Consequence-driven restriction: the inference is only useful when it
   chains through an existential witness — [r] must have existential
   variables and the homomorphism must map some variable of γ2 onto one
   of them. A resolution entirely within the universal part of β is
   reconstructed at evaluation time from the projected Datalog rules
   α → Bi and the rule d itself, so dropping it loses no ground
   consequence while keeping the closure at the size the paper's
   consequence-driven references (EL, Horn-SHIQ) achieve. *)
let resolve_gensym = Names.gensym "rv"

let resolve_with gensym r d =
  if (not (Rule.is_datalog d)) || Rule.is_datalog r then []
  else begin
    let d = Rule.rename_apart gensym d in
    let alpha = Rule.body_atoms r in
    let beta = Rule.head r in
    let alpha_vars = Names.Sset.elements (Rule.uvars r) in
    let candidates = List.map (fun v -> Term.Var v) alpha_vars in
    (* Only atoms over a relation occurring in β can belong to γ2; the
       others are forced into γ1. This keeps the split enumeration
       proportional to the atoms that could possibly match. *)
    let beta_rels =
      List.fold_left (fun acc a -> Theory.Rel_set.add (Atom.rel_key a) acc) Theory.Rel_set.empty beta
    in
    let matchable, forced_gamma1 =
      List.partition (fun a -> Theory.Rel_set.mem (Atom.rel_key a) beta_rels) (Rule.body_atoms d)
    in
    if matchable = [] then []
    else
    List.concat_map
      (fun (gamma2, gamma1_rest) ->
        let gamma1 = gamma1_rest @ forced_gamma1 in
        if gamma2 = [] then []
        else
          List.concat_map
            (fun h ->
              (* Chain through an existential witness or skip. *)
              let hits_evar =
                Names.Sset.exists
                  (fun v ->
                    match Subst.find_opt v h with
                    | Some (Term.Var w) -> Names.Sset.mem w (Rule.evars r)
                    | Some _ | None -> false)
                  (Subst.domain h)
              in
              if not hits_evar then []
              else
              (* Extend h on the leftover variables of γ1 with variables
                 of α (the condition vars(h(γ1)) ⊆ vars(α) forces it). *)
              let leftover =
                Names.Sset.elements
                  (Names.Sset.diff
                     (List.fold_left
                        (fun acc a -> Names.Sset.union acc (Atom.var_set a))
                        Names.Sset.empty gamma1)
                     (Subst.domain h))
              in
              if leftover <> [] && candidates = [] then []
              else
                List.filter_map
                  (fun h ->
                    let h_gamma1 = Subst.apply_atoms h gamma1 in
                    let ok =
                      List.for_all
                        (fun a ->
                          Names.Sset.subset (Atom.var_set a) (Names.Sset.of_list alpha_vars))
                        h_gamma1
                    in
                    if not ok then None
                    else begin
                      let h_delta = Subst.apply_atoms h (Rule.head d) in
                      Some
                        (make_rule (alpha @ h_gamma1) (beta @ h_delta) (Rule.evars r))
                    end)
                  (Matching.extensions h leftover candidates))
            (Matching.all gamma2 beta))
      (splits matchable)
  end

let resolve r d = resolve_with resolve_gensym r d

(* ------------------------------------------------------------------ *)
(* Ξ(Σ): indexed given-clause closure                                  *)

(* A committed rule of the closure. The sequence number is its commit
   rank; resolution combines a rule only with partners of smaller rank,
   so every unordered (existential, Datalog) pair is generated exactly
   once — by whichever member committed later. *)
type entry = {
  en_rule : Rule.t;
  en_seq : int;
  en_datalog : bool;
  en_head_rels : int list;  (** sorted distinct head relation ids *)
  en_body_rels : int list;  (** sorted distinct body relation ids *)
  mutable en_dead : bool;  (** subsumed by a live rule (subsume mode) *)
  en_target : Subsumption.target option;  (** prepared once, subsume mode *)
}

let rel_ids atoms = List.sort_uniq Int.compare (List.map Atom.rel_id atoms)

let tbl_push tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add tbl key (ref [ v ])

(* Partners from [index] under any of [rels], deduplicated and in
   ascending commit order. *)
let gather index rels =
  List.concat_map
    (fun rel -> match Hashtbl.find_opt index rel with Some l -> !l | None -> [])
    rels
  |> List.sort_uniq (fun e1 e2 -> Int.compare e1.en_seq e2.en_seq)

let closure ?pool ?(max_rules = 10_000) ?(subsume = false) (sigma : Theory.t) :
    Theory.t * stats =
  List.iter
    (fun r ->
      if not (Rule.is_positive r) then invalid_arg "Saturate.closure: negation not supported")
    (Theory.rules sigma);
  (* Canonical dedup: a renaming-sensitive raw key (hash-consed atom
     ids) filters literal re-derivations before the canonical key is
     computed. *)
  let raw_seen : unit Rule.Key.Tbl.t = Rule.Key.Tbl.create 4096 in
  let seen : unit Rule.Key.Tbl.t = Rule.Key.Tbl.create 1024 in
  let entries = ref [] in
  (* reverse commit order *)
  let count = ref 0 in
  let resolutions = ref 0 in
  let queue : entry Queue.t = Queue.create () in
  let dat_by_body_rel : (int, entry list ref) Hashtbl.t = Hashtbl.create 64 in
  let exist_by_head_rel : (int, entry list ref) Hashtbl.t = Hashtbl.create 64 in
  (* Subsume mode: live single-head Datalog rules by head relation, the
     candidate sets of both subsumption directions. *)
  let sub_by_head_rel : (int, entry list ref) Hashtbl.t = Hashtbl.create 64 in
  let commit r =
    let raw = Rule.raw_key r in
    if not (Rule.Key.Tbl.mem raw_seen raw) then begin
      Rule.Key.Tbl.add raw_seen raw ();
      let key = Rule.canonical_key r in
      if not (Rule.Key.Tbl.mem seen key) then begin
        Rule.Key.Tbl.add seen key ();
        incr count;
        if !count > max_rules then
          raise (Budget_exceeded (Fmt.str "Ξ(Σ) exceeded %d rules" max_rules));
        let datalog = Rule.is_datalog r in
        let e =
          {
            en_rule = r;
            en_seq = !count;
            en_datalog = datalog;
            en_head_rels = rel_ids (Rule.head r);
            en_body_rels = rel_ids (Rule.body_atoms r);
            en_dead = false;
            en_target = (if subsume then Subsumption.prepare r else None);
          }
        in
        entries := e :: !entries;
        if datalog then List.iter (fun rel -> tbl_push dat_by_body_rel rel e) e.en_body_rels
        else List.iter (fun rel -> tbl_push exist_by_head_rel rel e) e.en_head_rels;
        (* Forward/backward subsumption inside the loop. Subsumed rules
           are only marked: they stay in the calculus (as given clauses
           and partners), so the closure's inference structure — and
           with it the Datalog fixpoint of the output — is exactly that
           of the unpruned run; the marks just drop redundant rules
           from the emitted theory. *)
        (match e.en_target with
        | Some tg ->
          let head_rel = Atom.rel_id (List.hd (Rule.head r)) in
          let peers =
            match Hashtbl.find_opt sub_by_head_rel head_rel with
            | Some l -> List.rev !l (* ascending commit order *)
            | None -> []
          in
          if
            List.exists
              (fun e' ->
                (not e'.en_dead)
                && Subsumption.rel_ids_subset e'.en_body_rels e.en_body_rels
                && Subsumption.subsumes_prepared e'.en_rule tg)
              peers
          then e.en_dead <- true
          else
            List.iter
              (fun e' ->
                if
                  (not e'.en_dead)
                  && Subsumption.rel_ids_subset e.en_body_rels e'.en_body_rels
                then
                  match e'.en_target with
                  | Some tg' when Subsumption.subsumes_prepared r tg' -> e'.en_dead <- true
                  | Some _ | None -> ())
              peers;
          tbl_push sub_by_head_rel head_rel e
        | None -> ());
        Queue.add e queue
      end
    end
  in
  (* Candidate generation for one given clause: pure apart from
     hash-cons interning (domain-safe), so a round's batch may run on a
     pool. Indexes are only mutated by the sequential commit phase. *)
  let process e =
    let r = e.en_rule in
    let gensym = Names.gensym (Fmt.str "rv!%d!" e.en_seq) in
    let resolved =
      if e.en_datalog then
        List.concat_map
          (fun e' -> if e'.en_seq < e.en_seq then resolve_with gensym e'.en_rule r else [])
          (gather exist_by_head_rel e.en_body_rels)
      else
        List.concat_map
          (fun e' -> if e'.en_seq < e.en_seq then resolve_with gensym r e'.en_rule else [])
          (gather dat_by_body_rel e.en_head_rels)
    in
    project r @ unify r @ resolved
  in
  List.iter commit (Theory.rules sigma);
  while not (Queue.is_empty queue) do
    let batch = Array.of_seq (Queue.to_seq queue) in
    Queue.clear queue;
    resolutions := !resolutions + Array.length batch;
    (* Generate in parallel, commit sequentially in batch order: the
       output rule sequence is independent of the pool (and of whether
       one is supplied at all). *)
    let candidates = Pool.parallel_map pool process batch in
    Array.iter (fun cs -> List.iter commit cs) candidates
  done;
  let live = List.filter (fun e -> not e.en_dead) (List.rev !entries) in
  let datalog_rules = List.length (List.filter (fun e -> e.en_datalog) live) in
  ( Theory.of_rules (List.map (fun e -> e.en_rule) live),
    {
      input_rules = Theory.size sigma;
      closure_rules = List.length live;
      datalog_rules;
      resolutions = !resolutions;
    } )

(* The seed's snapshot-based closure, kept verbatim as an independent
   oracle for the indexed loop (tests compare the two as canonical rule
   sets). Dedup uses the printed structural key of the canonicalized
   rule — deliberately not {!Rule.canonical_key} — so the oracle shares
   no fingerprinting code with {!closure}. *)
let closure_reference ?(max_rules = 10_000) (sigma : Theory.t) : Theory.t * stats =
  List.iter
    (fun r ->
      if not (Rule.is_positive r) then
        invalid_arg "Saturate.closure_reference: negation not supported")
    (Theory.rules sigma);
  let canonical_key r = Rule.structural_key (Rule.canonicalize r) in
  let seen : (Rule.structural_key, unit) Hashtbl.t = Hashtbl.create 1024 in
  let all = ref [] in
  (* The two resolution-partner classes, accumulated as rules arrive so
     neither pop re-filters the whole closure. *)
  let datalog = ref [] in
  let existential = ref [] in
  let count = ref 0 in
  let resolutions = ref 0 in
  let queue = Queue.create () in
  let add r =
    let key = canonical_key r in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      incr count;
      if !count > max_rules then
        raise (Budget_exceeded (Fmt.str "Ξ(Σ) exceeded %d rules" max_rules));
      all := r :: !all;
      if Rule.is_datalog r then datalog := r :: !datalog
      else existential := r :: !existential;
      Queue.add r queue
    end
  in
  List.iter add (Theory.rules sigma);
  while not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    List.iter add (project r);
    List.iter add (unify r);
    (* Resolve r (as α → β) against all current Datalog rules, and all
       current rules against r if r is Datalog. Snapshots are enough:
       later additions re-examine the pairs from their own turn. *)
    incr resolutions;
    let datalog_snapshot = !datalog in
    let existential_snapshot = !existential in
    if not (Rule.is_datalog r) then
      List.iter (fun d -> List.iter add (resolve r d)) datalog_snapshot
    else List.iter (fun r' -> List.iter add (resolve r' r)) existential_snapshot
  done;
  ( Theory.of_rules (List.rev !all),
    {
      input_rules = Theory.size sigma;
      closure_rules = !count;
      datalog_rules = List.length !datalog;
      resolutions = !resolutions;
    } )

(* dat(Σ) through the faithful closure: the Datalog rules of Ξ(Σ)
   (Def. 19 verbatim). Fine for small theories; use {!dat} for anything
   sizeable. *)
let dat_via_closure ?max_rules (sigma : Theory.t) : Theory.t * stats =
  let xi, stats = closure ?max_rules sigma in
  (Theory.of_rules (List.filter Rule.is_datalog (Theory.rules xi)), stats)

(* ------------------------------------------------------------------ *)
(* Consequence-driven dat(Σ)                                           *)

(* The faithful closure materializes every intermediate head subset as
   its own rule, which is exponentially wasteful. The consequence-driven
   variant keeps one object per (body, head-at-spawn): the head grows
   monotonically in place — sound because every added atom is a Datalog
   consequence of the same witness instance — and inferences that need
   extra body atoms h(γ1) or a variable unification g spawn a new object
   with the enlarged body / merged variables. Projections of saturated
   heads are emitted as Datalog rules and fed back as resolution
   partners, which is what nested existential propagation needs. This is
   the EL / Horn-SHIQ-style procedure the paper cites as the practical
   shape of Def. 19. *)

type obj = {
  o_body : Atom.t list;  (** sorted, deduplicated *)
  mutable o_head : Atom.Set.t;
  o_evars : Names.Sset.t;
  o_univ : Names.Sset.t;  (** universal variables: vars of the body *)
}

(* One way of resolving a Datalog rule into an object: the unifier
   restricted to the object's universal variables (the "g" to apply),
   the invented body atoms h(γ1) not present in the object, and the
   instantiated head h(δ) of the Datalog rule. *)
type resolution = {
  res_theta : Subst.t;  (** object-variable merges; empty = in place *)
  res_invented : Atom.t list;
  res_delta : Atom.t list;
}

(* Unification with three variable sorts: the Datalog rule's variables
   bind freely; the object's universal variables may merge with each
   other (Fig. 3's g : vars(α) → vars(α)); existential variables are
   rigid — they can only absorb rule variables. *)
let rec deref subst t =
  match t with
  | Term.Var v -> (
    match Subst.find_opt v subst with Some t' -> deref subst t' | None -> t)
  | Term.Const _ | Term.Null _ -> t

let unify_terms ~is_pattern ~is_univ subst t1 t2 =
  let t1 = deref subst t1 and t2 = deref subst t2 in
  if Term.equal t1 t2 then Some subst
  else
    match (t1, t2) with
    | Term.Var v, t when is_pattern v -> Some (Subst.add v t subst)
    | t, Term.Var v when is_pattern v -> Some (Subst.add v t subst)
    | Term.Var v1, Term.Var v2 when is_univ v1 && is_univ v2 ->
      Some (Subst.add v1 t2 subst)
    | _ -> None

let unify_atoms ~is_pattern ~is_univ subst pattern target =
  if Atom.rel_key pattern <> Atom.rel_key target then None
  else
    let rec go subst ps ts =
      match (ps, ts) with
      | [], [] -> Some subst
      | p :: ps, t :: ts -> (
        match unify_terms ~is_pattern ~is_univ subst p t with
        | None -> None
        | Some subst -> go subst ps ts)
      | [], _ :: _ | _ :: _, [] -> None
    in
    go subst (Atom.terms pattern) (Atom.terms target)

(* Structural resolution identity: the θ bindings (sorted by variable,
   courtesy of [Subst.bindings]) together with the sorted invented and
   delta atom lists. Replaces a [Fmt.str]-printed string key — string
   formatting in the inner resolution loop was measurable overhead and
   allocation churn. Hashing goes through the pure term structure
   (never [Term.id]/[Atom.id], whose assignment order depends on
   evaluation history), so table iteration order — and with it the
   saturation trace — is reproducible across runs. *)
module Res_key = struct
  type t = (string * Term.t) list * Atom.t list * Atom.t list

  (* [Atom.equal] is physical equality, valid by hash-consing. *)
  let equal (th1, i1, d1) (th2, i2, d2) =
    List.equal
      (fun (v1, t1) (v2, t2) -> String.equal v1 v2 && Term.equal t1 t2)
      th1 th2
    && List.equal Atom.equal i1 i2
    && List.equal Atom.equal d1 d2

  let atom_repr a = (Atom.rel a, Atom.ann a, Atom.args a)

  let hash (theta, invented, delta) =
    Hashtbl.hash (theta, List.map atom_repr invented, List.map atom_repr delta)
end

module Res_tbl = Hashtbl.Make (Res_key)

let resolution_key res : Res_key.t =
  ( Subst.bindings res.res_theta,
    List.sort Atom.compare res.res_invented,
    List.sort Atom.compare res.res_delta )

(* All resolutions of the Datalog rule [d] (renamed apart already) into
   [obj]. The search is anchored: one body atom of [d] is first unified
   with a head atom containing an existential variable (the
   consequence-driven condition), then the remaining atoms either unify
   with existing head/body atoms or are invented over the object's
   universal variables. [max_results] caps pathological fan-out. *)
let resolve_object ?(max_results = 4_000) obj d =
  let is_univ v = Names.Sset.mem v obj.o_univ in
  let is_evar v = Names.Sset.mem v obj.o_evars in
  let is_pattern v = not (is_univ v || is_evar v) in
  let unify_atoms = unify_atoms ~is_pattern ~is_univ in
  let head_atoms = Atom.Set.elements obj.o_head in
  let evar_heads =
    List.filter
      (fun a -> List.exists (fun v -> is_evar v) (Atom.vars a))
      head_atoms
  in
  let all_targets = head_atoms @ obj.o_body in
  let body = Rule.body_atoms d in
  let results : resolution Res_tbl.t = Res_tbl.create 16 in
  let overflow = ref false in
  let finish subst invented =
    if Res_tbl.length results < max_results then begin
      let resolve_atom a = Atom.map_terms (deref subst) a in
      let theta =
        Names.Sset.fold
          (fun v acc ->
            match deref subst (Term.Var v) with
            | Term.Var v' when String.equal v v' -> acc
            | t -> Subst.add v t acc)
          obj.o_univ Subst.empty
      in
      let res =
        {
          res_theta = theta;
          res_invented = List.map resolve_atom invented;
          res_delta = List.map resolve_atom (Rule.head d);
        }
      in
      Res_tbl.replace results (resolution_key res) res
    end
    else overflow := true
  in
  (* Process remaining atoms: unify with an existing atom, or invent. *)
  let rec go subst invented = function
    | [] -> finish subst invented
    | atom :: rest ->
      List.iter
        (fun target ->
          match unify_atoms subst atom target with
          | None -> ()
          | Some subst' -> go subst' invented rest)
        all_targets;
      (* Invention: the atom's image must live entirely on the object's
         universal variables (and constants). Unbound rule variables are
         enumerated over the universal variables. *)
      let instance = Atom.map_terms (deref subst) atom in
      let grounded_ok =
        List.for_all
          (fun t ->
            match t with
            | Term.Var v -> not (is_evar v)
            | Term.Const _ -> true
            | Term.Null _ -> false)
          (Atom.terms instance)
      in
      if grounded_ok then begin
        let unbound =
          List.sort_uniq String.compare (List.filter is_pattern (Atom.vars instance))
        in
        let candidates = Names.Sset.fold (fun v acc -> Term.Var v :: acc) obj.o_univ [] in
        if unbound = [] || candidates <> [] then
          List.iter
            (fun subst' -> go subst' (atom :: invented) rest)
            (Matching.extensions subst unbound candidates)
      end
  in
  (* Anchored start: some atom of [d] must bind an existential variable
     of a head atom. *)
  List.iteri
    (fun i anchor ->
      List.iter
        (fun target ->
          match unify_atoms Subst.empty anchor target with
          | None -> ()
          | Some subst ->
            let binds_evar =
              List.exists
                (fun v ->
                  match deref subst (Term.Var v) with
                  | Term.Var w -> is_evar w
                  | Term.Const _ | Term.Null _ -> false)
                (Atom.vars anchor)
            in
            if binds_evar then
              go subst [] (List.filteri (fun j _ -> j <> i) body))
        evar_heads)
    body;
  (Res_tbl.fold (fun _ r acc -> r :: acc) results [], !overflow)

let object_key body head =
  (* Head atoms ride along in the body so that the key needs no safety
     check on existential variables (it is only a canonical
     fingerprint). *)
  let h = Atom.Set.elements head in
  let pseudo = Rule.make_pos_unchecked (body @ h) (if h = [] then body else h) in
  Rule.canonical_key pseudo

(* A registered Datalog resolution partner: the original Datalog rules
   plus the projections emitted so far, deduplicated canonically. Each
   carries one variable-renamed copy made at registration: resolution
   needs the partner variable-disjoint from the object, and renaming in
   the inner loop would re-intern every atom of every partner for every
   object pass. The cached copy is reused whenever its variables miss
   the object (the common case — its names are private gensyms); a
   fresh rename happens only after a collision, i.e. when the object
   absorbed this partner's variables in an earlier resolution. *)
type partner = {
  p_seq : int;  (** registration rank: iteration stays in this order *)
  p_rule : Rule.t;
  p_renamed : Rule.t;
  p_vars : Names.Sset.t;  (** variables of the renamed copy *)
}

(* dat(Σ) for a guarded (or any positive existential) theory, computed
   consequence-driven. Only the certain answers of the result matter,
   so it is returned subsumption-reduced: a rule another rule subsumes
   derives nothing new, and leaving it in only costs evaluation and
   maintenance (it can also tie relations into a recursive component
   that the reduced program does not have). *)
let dat ?(max_rules = 200_000) (sigma : Theory.t) : Theory.t * stats =
  List.iter
    (fun r ->
      if not (Rule.is_positive r) then invalid_arg "Saturate.dat: negation not supported")
    (Theory.rules sigma);
  let datalog0, existential = List.partition Rule.is_datalog (Theory.rules sigma) in
  (* Partners are indexed by body relation id: an object retrieves the
     rules that can anchor into its head by relation lookup instead of
     scanning (and re-filtering) the whole partner list on every local
     saturation pass. *)
  let partners_by_rel : (int, partner list ref) Hashtbl.t = Hashtbl.create 64 in
  let partner_count = ref 0 in
  let register_partner d =
    incr partner_count;
    let renamed = Rule.rename_apart resolve_gensym d in
    let p = { p_seq = !partner_count; p_rule = d; p_renamed = renamed; p_vars = Rule.vars renamed } in
    List.iter (fun rel -> tbl_push partners_by_rel rel p) (rel_ids (Rule.body_atoms d))
  in
  let partner_seen : unit Rule.Key.Tbl.t = Rule.Key.Tbl.create 256 in
  List.iter
    (fun d ->
      Rule.Key.Tbl.replace partner_seen (Rule.canonical_key d) ();
      register_partner d)
    datalog0;
  let budget = ref (max_rules - List.length datalog0) in
  (* The rule budget does not bound the unification search inside
     resolutions (heads can grow large while producing few new rules),
     so a separate work budget caps total resolution effort. *)
  let work = ref (200 * max_rules) in
  let spend n =
    work := !work - n;
    if !work < 0 then
      raise (Budget_exceeded (Fmt.str "dat(Σ) exceeded its work budget (%d rules)" max_rules))
  in
  let projections = ref [] in
  let add_partner r =
    let key = Rule.canonical_key r in
    if not (Rule.Key.Tbl.mem partner_seen key) then begin
      Rule.Key.Tbl.replace partner_seen key ();
      decr budget;
      if !budget < 0 then raise (Budget_exceeded (Fmt.str "dat(Σ) exceeded %d rules" max_rules));
      register_partner r;
      projections := r :: !projections;
      true
    end
    else false
  in
  let objects : obj list ref = ref [] in
  let object_seen : unit Rule.Key.Tbl.t = Rule.Key.Tbl.create 256 in
  let spawn body head evars =
    let body = dedup_atoms body in
    let key = object_key body head in
    if not (Rule.Key.Tbl.mem object_seen key) then begin
      Rule.Key.Tbl.replace object_seen key ();
      decr budget;
      if !budget < 0 then raise (Budget_exceeded (Fmt.str "dat(Σ) exceeded %d rules" max_rules));
      let univ =
        List.fold_left
          (fun acc a -> Names.Sset.union acc (Atom.var_set a))
          Names.Sset.empty body
      in
      objects := { o_body = body; o_head = head; o_evars = evars; o_univ = univ } :: !objects
    end
  in
  List.iter
    (fun r -> spawn (Rule.body_atoms r) (Atom.Set.of_list (Rule.head r)) (Rule.evars r))
    existential;
  (* Project the saturated head of [obj] into Datalog partner rules. *)
  let project_object obj =
    Atom.Set.fold
      (fun a changed ->
        if Names.Sset.is_empty (Names.Sset.inter (Atom.var_set a) obj.o_evars) then
          add_partner (make_rule obj.o_body [ a ] Names.Sset.empty) || changed
        else changed)
      obj.o_head false
  in
  (* A Datalog partner is relevant to an object only if one of its body
     relations occurs in a head atom carrying an existential variable —
     otherwise no resolution can anchor. Those relation ids key the
     partner index. *)
  let evar_rels obj =
    rel_ids
      (Atom.Set.fold
         (fun a acc ->
           if List.exists (fun v -> Names.Sset.mem v obj.o_evars) (Atom.vars a) then a :: acc
           else acc)
         obj.o_head [])
  in
  let gather_partners rels =
    List.concat_map
      (fun rel -> match Hashtbl.find_opt partners_by_rel rel with Some l -> !l | None -> [])
      rels
    |> List.sort_uniq (fun p1 p2 -> Int.compare p1.p_seq p2.p_seq)
  in
  (* Global fixpoint: saturate every object against the current partner
     set; new projections or spawned objects trigger another pass. *)
  let overflowed = ref false in
  let changed = ref true in
  while !changed do
    changed := false;
    let object_snapshot = !objects in
    List.iter
      (fun obj ->
        let local = ref true in
        while !local do
          local := false;
          List.iter
            (fun { p_rule = d0; p_renamed = d_renamed; p_vars = d_vars; _ } ->
              spend (1 + Atom.Set.cardinal obj.o_head);
              let d =
                if
                  Names.Sset.exists
                    (fun v ->
                      Names.Sset.mem v obj.o_univ || Names.Sset.mem v obj.o_evars)
                    d_vars
                then Rule.rename_apart resolve_gensym d0
                else d_renamed
              in
              let resolutions, overflow = resolve_object obj d in
              spend (List.length resolutions);
              if overflow then overflowed := true;
              List.iter
                (fun res ->
                  let in_place =
                    Subst.is_empty res.res_theta
                    && List.for_all
                         (fun a -> List.exists (Atom.equal a) obj.o_body)
                         res.res_invented
                  in
                  if in_place then begin
                    let fresh =
                      List.filter (fun a -> not (Atom.Set.mem a obj.o_head)) res.res_delta
                    in
                    if fresh <> [] then begin
                      obj.o_head <- Atom.Set.union obj.o_head (Atom.Set.of_list fresh);
                      local := true;
                      changed := true
                    end
                  end
                  else begin
                    let g = res.res_theta in
                    spawn
                      (Subst.apply_atoms g obj.o_body @ res.res_invented)
                      (Atom.Set.union
                         (Atom.Set.of_list (Subst.apply_atoms g (Atom.Set.elements obj.o_head)))
                         (Atom.Set.of_list res.res_delta))
                      obj.o_evars
                  end)
                resolutions)
            (gather_partners (evar_rels obj))
        done;
        if project_object obj then changed := true)
      object_snapshot;
    if List.length !objects > List.length object_snapshot then changed := true
  done;
  if !overflowed then
    Logs.warn (fun m -> m "Saturate.dat: resolution fan-out was capped; result may be incomplete");
  let datalog_rules = Subsumption.reduce (Theory.of_rules (datalog0 @ List.rev !projections)) in
  ( datalog_rules,
    {
      input_rules = Theory.size sigma;
      closure_rules = List.length !objects + Theory.size datalog_rules;
      datalog_rules = Theory.size datalog_rules;
      resolutions = List.length !objects;
    } )

(* Prop. 6: a nearly guarded theory translates to dat(Σg) ∪ Σd, reduced
   as a whole (a rule of Σd can subsume a projection of dat(Σg)). *)
let dat_nearly_guarded ?max_rules (sigma : Theory.t) : Theory.t * stats =
  let guarded_part, datalog_part =
    List.partition Classify.is_guarded_rule (Theory.rules sigma)
  in
  let ap = Classify.affected_positions sigma in
  List.iter
    (fun r ->
      if not (Rule.is_datalog r && Names.Sset.is_empty (Classify.unsafe_vars ~ap r)) then
        invalid_arg (Fmt.str "Saturate.dat_nearly_guarded: rule %a is not nearly guarded" Rule.pp r))
    datalog_part;
  let datalog_of_guarded, stats = dat ?max_rules (Theory.of_rules guarded_part) in
  (Subsumption.reduce (Theory.of_rules (Theory.rules datalog_of_guarded @ datalog_part)), stats)
