(** The predicate dependency graph of a Datalog program: edges from body
    relations to head relations, strongly connected components (Tarjan),
    and recursion/reachability queries. Used by the magic-set transform
    and available for program analysis. *)

open Guarded_core

module Rel_map = Map.Make (struct
  type t = Atom.rel_key

  let compare = compare
end)

module Rel_set = Theory.Rel_set

type t = {
  nodes : Atom.rel_key list;
  succs : Rel_set.t Rel_map.t;  (** head relations depending on the key *)
  preds : Rel_set.t Rel_map.t;  (** body relations the key depends on *)
}

let find_set key m = match Rel_map.find_opt key m with Some s -> s | None -> Rel_set.empty

let of_theory (sigma : Theory.t) : t =
  let add_edge src dst (succs, preds) =
    ( Rel_map.add src (Rel_set.add dst (find_set src succs)) succs,
      Rel_map.add dst (Rel_set.add src (find_set dst preds)) preds )
  in
  let succs, preds =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc h ->
            List.fold_left
              (fun acc lit -> add_edge (Atom.rel_key (Literal.atom lit)) (Atom.rel_key h) acc)
              acc (Rule.body r))
          acc (Rule.head r))
      (Rel_map.empty, Rel_map.empty)
      (Theory.rules sigma)
  in
  { nodes = Rel_set.elements (Theory.relations sigma); succs; preds }

let successors g key = find_set key g.succs
let predecessors g key = find_set key g.preds

(* Tarjan's strongly connected components, in reverse topological order
   (every component only depends on earlier ones). *)
let sccs (g : t) : Atom.rel_key list list =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    Rel_set.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (successors g v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack w false;
          if compare w v = 0 then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) g.nodes;
  (* Tarjan emits sink components first; the prepend-accumulated list is
     therefore already in dependencies-first order. *)
  !components

(* A relation is recursive when its component has more than one member
   or a self-loop. *)
let recursive_relations (g : t) : Rel_set.t =
  List.fold_left
    (fun acc component ->
      match component with
      | [ single ] ->
        if Rel_set.mem single (successors g single) then Rel_set.add single acc else acc
      | many -> List.fold_left (fun acc k -> Rel_set.add k acc) acc many)
    Rel_set.empty (sccs g)

(* The partition used to refine a stratum for incremental maintenance
   (an overdeletion or a negation fallback stays inside one component):
   SCCs of the dependency graph with each rule's head relations tied
   together (a multi-head rule derives its heads in one instance, so a
   rule must never straddle two components). The tie edges only merge
   components of the plain graph, so the condensation stays acyclic and
   the dependencies-first order of [sccs] carries over: every body
   relation of a component is derived in the same or an earlier one. *)
let rule_components (sigma : Theory.t) : Theory.t list =
  let g = of_theory sigma in
  let succs =
    List.fold_left
      (fun succs r ->
        match List.sort_uniq compare (List.map Atom.rel_key (Rule.head r)) with
        | [] | [ _ ] -> succs
        | heads ->
          List.fold_left
            (fun succs h ->
              List.fold_left
                (fun succs h' ->
                  if h = h' then succs
                  else Rel_map.add h (Rel_set.add h' (find_set h succs)) succs)
                succs heads)
            succs heads)
      g.succs (Theory.rules sigma)
  in
  let comps = sccs { g with succs } in
  let comp_of = Hashtbl.create 16 in
  List.iteri (fun i comp -> List.iter (fun k -> Hashtbl.replace comp_of k i) comp) comps;
  let buckets = Array.make (max 1 (List.length comps)) [] in
  List.iter
    (fun r ->
      match Rule.head r with
      | [] -> ()
      | h :: _ ->
        let i = Hashtbl.find comp_of (Atom.rel_key h) in
        buckets.(i) <- r :: buckets.(i))
    (Theory.rules sigma);
  Array.to_list buckets
  |> List.filter_map (function [] -> None | rs -> Some (Theory.of_rules (List.rev rs)))

(* Relations on which [targets] transitively depend (targets included). *)
let reachable_from (g : t) (targets : Rel_set.t) : Rel_set.t =
  let rec go frontier seen =
    if Rel_set.is_empty frontier then seen
    else begin
      let next =
        Rel_set.fold
          (fun key acc -> Rel_set.union acc (Rel_set.diff (predecessors g key) seen))
          frontier Rel_set.empty
      in
      go next (Rel_set.union seen next)
    end
  in
  go targets targets
