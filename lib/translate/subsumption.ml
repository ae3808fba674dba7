(** Rule subsumption: shrinking translated programs.

    A Datalog rule r1 subsumes r2 when some substitution θ maps the
    head of r1 onto the head of r2 and every body atom of θ(r1) into
    the body of r2 — then r2 derives nothing r1 does not, and deleting
    r2 preserves the program's fixpoint on every database. The
    translations of Sections 5-6 produce many such redundancies (guard
    variants instantiate each other), so the reducer is offered as a
    post-pass on their Datalog outputs, and {!Saturate.closure} runs
    the pairwise test inside its commit loop.

    The pairwise test matches the candidate subsumer's variables
    against a frozen copy of the target: freezing turns the target's
    variables into reserved constants, so the match side needs no
    renaming apart — a variable can never capture a constant. The
    frozen target (head plus a body {!Database}) is therefore a
    reusable value, built at most once per rule by {!prepare} and shared
    across every subsumer probed against it; the seed implementation
    rebuilt it — plus a gensym-renamed copy of the subsumer — for every
    pair. *)

open Guarded_core

(* Only positive single-head Datalog rules take part, on either side. *)
let eligible r =
  match Rule.head r with
  | [ _ ] -> Rule.is_datalog r && Rule.is_positive r
  | _ -> false

type target = {
  tg_head : Atom.t;  (** frozen head atom *)
  tg_db : Database.t;  (** frozen body atoms, indexed for matching *)
  tg_body_rels : int list;  (** sorted distinct body relation ids *)
}

let body_rel_ids r =
  List.sort_uniq Int.compare (List.map Atom.rel_id (Rule.body_atoms r))

let prepare r =
  if not (eligible r) then None
  else
    match Rule.head r with
    | [ h ] ->
      Some
        {
          tg_head = Matching.freeze_atom h;
          tg_db = Database.of_atoms (List.map Matching.freeze_atom (Rule.body_atoms r));
          tg_body_rels = body_rel_ids r;
        }
    | _ -> None

(* θ(head r1) = target head, then θ(body r1) into the target body. The
   homomorphism search runs against the prepared database; [r1]'s
   variables match frozen constants freely and real constants only
   match themselves, exactly the classical subsumption test. *)
let subsumes_prepared r1 (tg : target) =
  eligible r1
  &&
  match Rule.head r1 with
  | [ h1 ] -> (
    match Subst.match_atom Subst.empty h1 tg.tg_head with
    | None -> false
    | Some theta -> Homomorphism.exists ~init:theta (Rule.body_atoms r1) tg.tg_db)
  | _ -> false

let subsumes r1 r2 =
  match prepare r2 with None -> false | Some tg -> subsumes_prepared r1 tg

(* [subset xs ys] for sorted distinct int lists. *)
let rec rel_ids_subset xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs', y :: ys' ->
    if x = y then rel_ids_subset xs' ys'
    else if x > y then rel_ids_subset xs ys'
    else false

(* Remove rules subsumed by another (distinct) rule of the theory.
   Identical-up-to-renaming duplicates collapse to their first
   occurrence; among mutually subsuming rules the earliest survives
   (candidates are visited first-to-last and only live rules get to
   subsume).

   Candidate pairs come from an index instead of the seed's full n²
   scan: a subsumer must share the target's head relation, and its body
   relations must be a subset of the target's (θ maps body atoms onto
   same-relation atoms), so rules are grouped by head relation id and
   pairs failing the body-relation subset test are skipped before any
   matching work. Subsumption never crosses groups, so each group is
   reduced on its own: a target is prepared the first time a live
   candidate of its group passes the subset test against it, and the
   group's targets are garbage once the group is done. *)
let reduce (sigma : Theory.t) : Theory.t =
  let rules = Array.of_list (Theory.rules (Theory.dedup sigma)) in
  let n = Array.length rules in
  let dead = Array.make n false in
  let body_rels = Array.map body_rel_ids rules in
  (* head relation id -> indexes of eligible rules, ascending *)
  let by_head : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  for i = n - 1 downto 0 do
    if eligible rules.(i) then begin
      let rel = Atom.rel_id (List.hd (Rule.head rules.(i))) in
      Hashtbl.replace by_head rel (i :: Option.value ~default:[] (Hashtbl.find_opt by_head rel))
    end
  done;
  Hashtbl.iter
    (fun _ group ->
      let targets = Hashtbl.create 16 in
      let target j =
        match Hashtbl.find_opt targets j with
        | Some tg -> tg
        | None ->
          let tg = Option.get (prepare rules.(j)) in
          Hashtbl.add targets j tg;
          tg
      in
      List.iter
        (fun i ->
          if not dead.(i) then
            List.iter
              (fun j ->
                if
                  i <> j
                  && (not dead.(j))
                  && rel_ids_subset body_rels.(i) body_rels.(j)
                  && subsumes_prepared rules.(i) (target j)
                then dead.(j) <- true)
              group)
        group)
    by_head;
  Theory.of_rules (List.filteri (fun i _ -> not dead.(i)) (Array.to_list rules))
