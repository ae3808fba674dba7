(** Databases: mutable, indexed stores of ground atoms.

    A database is a finite set of atoms over constants and labeled nulls.
    Facts are held columnar: each relation stores its facts as packed
    int columns (one [int array] of {!Term.id}s per position) plus a
    parallel row→fact array, and candidate selection for partially
    bound atoms runs over {e sorted-run indexes} — per position, a
    short list of {!Intrun} runs of (term id, row) pairs — instead of
    hashtable buckets. Intersecting several bound positions walks the
    most selective position's runs and confirms the others with direct
    column reads, so the hot join path does binary searches and array
    loads, no hashing and no per-candidate allocation.

    Indexes are maintained LSM-style: {!add} appends a row to the
    columns in O(width) and leaves the indexes alone; the first lookup
    that needs a position's index folds the pending rows into a new
    sorted run and merges runs of similar size (lengths stay strictly
    increasing, so a relation holds O(log n) runs and total merge work
    is O(n log n)). A flush installs a fresh immutable snapshot through
    an [Atomic.t] under a per-relation mutex, so concurrent readers —
    the domain pool's parallel rounds read one shared database — either
    see the old complete snapshot or the new one, never a torn state.
    As before, additions made during a candidate iteration are not
    visited (runs are snapshotted at lookup time), and {!remove} must
    not run during an iteration.

    Removal is a tombstone: the row stays in its columns and is marked
    dead in the relation's liveness bytes, so the removal moves no row
    and throws away no run. The first lookup of a position after removals
    purges its runs with one k-way merge ({!Intrun.merge_filter}) that
    drops the dead rows, so runs only ever hold live rows and every
    index-driven count and probe stays exact; column scans skip dead
    rows. The removal that leaves a quarter of a relation's rows dead
    compacts it in place — the one operation that renumbers rows, so
    it bumps the relation version and the runs rebuild lazily.

    For rollback, every database carries a monotone mutation {!epoch};
    with {!enable_journal} the inverse of each mutation is also logged,
    and {!rollback} replays the log back to an earlier epoch.

    The distinguished unary relation {!acdom_rel} ("ACDom" in the paper)
    holds exactly the terms of the active domain; {!materialize_acdom}
    populates it from the current non-ACDom facts. *)

module Int_tbl = Hashtbl.Make (Int)

(* Immutable index snapshot for one column: the sorted runs (newest
   first, strictly increasing lengths, live rows only), how many rows
   they cover, and the relation version and dead-row count they were
   built against. *)
type ixstate = {
  ix_runs : int array list;
  ix_flushed : int;
  ix_version : int;
  ix_dead : int;
}

let empty_ix = { ix_runs = []; ix_flushed = 0; ix_version = 0; ix_dead = 0 }

(* Columnar store of one relation. [r_atoms]/[r_cols]/[r_live] share
   capacity; rows [0, r_rows) are in use, of which [r_dead] are
   tombstones (live byte 0), always fewer than a quarter of them.
   [r_dead] only grows between compactions; [r_version] counts
   compactions, the only renumbering of rows, so a run built under an
   older version is stale. *)
type rel = {
  r_id : int;  (** interned {!Atom.rel_id} *)
  r_width : int;  (** term positions: annotation slots + arguments *)
  r_ann : int;  (** of which annotation slots *)
  mutable r_atoms : Atom.t array;
  mutable r_cols : int array array;
  mutable r_rows : int;
  mutable r_live : Bytes.t;  (** per row: '\001' live, '\000' dead *)
  mutable r_dead : int;
  r_rowid : int Atom.Tbl.t;  (** fact -> row index *)
  r_ix : ixstate Atomic.t array;  (** one per position *)
  r_lock : Mutex.t;  (** serializes index flushes *)
  mutable r_version : int;
}

(* Journal entry: the inverse operation that undoes a mutation. *)
type mutation = Undo_add of Atom.t | Undo_remove of Atom.t

type t = {
  rels : rel Int_tbl.t;  (** rel_id -> columnar store *)
  mutable count : int;
  mutable epoch : int;  (** monotone mutation counter *)
  mutable journaling : bool;
  mutable journal : mutation list;  (** inverse ops, newest first *)
}

type epoch = int

let acdom_rel = "ACDom"

let create () =
  { rels = Int_tbl.create 64; count = 0; epoch = 0; journaling = false; journal = [] }

let cardinal db = db.count

let rel_of db rel_id = Int_tbl.find_opt db.rels rel_id

let mem db atom =
  match rel_of db (Atom.rel_id atom) with
  | None -> false
  | Some r -> Atom.Tbl.mem r.r_rowid atom

(* ------------------------------------------------------------------ *)
(* Row storage                                                         *)

let rel_create atom =
  let width = Array.length (Atom.term_ids atom) in
  {
    r_id = Atom.rel_id atom;
    r_width = width;
    r_ann = List.length (Atom.ann atom);
    r_atoms = [||];
    r_cols = Array.init width (fun _ -> [||]);
    r_rows = 0;
    r_live = Bytes.empty;
    r_dead = 0;
    r_rowid = Atom.Tbl.create 32;
    r_ix = Array.init width (fun _ -> Atomic.make empty_ix);
    r_lock = Mutex.create ();
    r_version = 0;
  }

let is_live r row = Bytes.get r.r_live row <> '\000'

let live_rows r = r.r_rows - r.r_dead

let rel_grow r =
  let cap = max 8 (2 * Array.length r.r_atoms) in
  let atoms = Array.make cap r.r_atoms.(0) in
  Array.blit r.r_atoms 0 atoms 0 r.r_rows;
  r.r_atoms <- atoms;
  for p = 0 to r.r_width - 1 do
    let col = Array.make cap 0 in
    Array.blit r.r_cols.(p) 0 col 0 r.r_rows;
    r.r_cols.(p) <- col
  done;
  let live = Bytes.make cap '\000' in
  Bytes.blit r.r_live 0 live 0 r.r_rows;
  r.r_live <- live

(* Slide the live rows down over the tombstones, in place: removals
   never run during an iteration, so nothing holds a row id across
   this. The one operation that renumbers rows: the version moves and
   every run rebuilds lazily. *)
let rel_compact r =
  let j = ref 0 in
  for row = 0 to r.r_rows - 1 do
    if is_live r row then begin
      if !j < row then begin
        let a = r.r_atoms.(row) in
        r.r_atoms.(!j) <- a;
        for p = 0 to r.r_width - 1 do
          r.r_cols.(p).(!j) <- r.r_cols.(p).(row)
        done;
        Atom.Tbl.replace r.r_rowid a !j
      end;
      incr j
    end
  done;
  Bytes.fill r.r_live 0 !j '\001';
  r.r_rows <- !j;
  r.r_dead <- 0;
  r.r_version <- r.r_version + 1

let rel_add r atom =
  if r.r_rows = Array.length r.r_atoms then begin
    if Array.length r.r_atoms = 0 then begin
      r.r_atoms <- Array.make 8 atom;
      r.r_cols <- Array.init r.r_width (fun _ -> Array.make 8 0);
      r.r_live <- Bytes.make 8 '\000'
    end
    else rel_grow r
  end;
  let row = r.r_rows in
  r.r_atoms.(row) <- atom;
  let ids = Atom.term_ids atom in
  for p = 0 to r.r_width - 1 do
    r.r_cols.(p).(row) <- ids.(p)
  done;
  Bytes.set r.r_live row '\001';
  Atom.Tbl.replace r.r_rowid atom row;
  r.r_rows <- row + 1

(* Tombstone: no row moves, so no run goes stale; the next lookup of
   each position purges the dead row from its runs. The removal that
   makes a quarter of the rows dead compacts the relation, so scans
   never visit more than a third as many dead rows as live ones and
   the deletions pay for the garbage they leave (amortized O(1) row
   copies each), not the next append. *)
let rel_remove r atom =
  match Atom.Tbl.find_opt r.r_rowid atom with
  | None -> false
  | Some row ->
    Atom.Tbl.remove r.r_rowid atom;
    Bytes.set r.r_live row '\000';
    r.r_dead <- r.r_dead + 1;
    if 4 * r.r_dead >= r.r_rows then rel_compact r;
    true

(* ------------------------------------------------------------------ *)
(* Sorted-run index maintenance                                        *)

let index_current r st =
  st.ix_flushed = r.r_rows && st.ix_version = r.r_version && st.ix_dead = r.r_dead

(* Bring position [p]'s run stack up to date: after removals, purge the
   runs into one run of the live rows; then sort the live pending rows
   into a new run and merge while it is at least as long as the head
   run — lengths stay strictly increasing, so a column keeps O(log n)
   runs and amortizes its merges. *)
let flush_locked r p st =
  let base = if st.ix_version = r.r_version then st else empty_ix in
  let runs =
    if base.ix_dead = r.r_dead || base.ix_runs = [] then base.ix_runs
    else
      match Intrun.merge_filter base.ix_runs (is_live r) with
      | [||] -> []
      | run -> [ run ]
  in
  let col = r.r_cols.(p) in
  let pending = r.r_rows - base.ix_flushed in
  let run = Array.make pending 0 in
  let k = ref 0 in
  for row = base.ix_flushed to r.r_rows - 1 do
    if is_live r row then begin
      run.(!k) <- Intrun.pack col.(row) row;
      incr k
    end
  done;
  let run = if !k = pending then run else Array.sub run 0 !k in
  Intrun.sort run;
  let rec push runs a =
    match runs with
    | b :: tl when Array.length a >= Array.length b -> push tl (Intrun.merge b a)
    | _ -> a :: runs
  in
  {
    ix_runs = (if !k = 0 then runs else push runs run);
    ix_flushed = r.r_rows;
    ix_version = r.r_version;
    ix_dead = r.r_dead;
  }

(* The current complete index snapshot of position [p]: fast path is
   one atomic load; a stale snapshot is rebuilt under the relation
   lock, re-checking after acquisition (another domain may have
   flushed first). *)
let get_index r p =
  let a = r.r_ix.(p) in
  let st = Atomic.get a in
  if index_current r st then st
  else begin
    Mutex.lock r.r_lock;
    let st = Atomic.get a in
    let st =
      if index_current r st then st
      else begin
        let st' = flush_locked r p st in
        Atomic.set a st';
        st'
      end
    in
    Mutex.unlock r.r_lock;
    st
  end

let index_count r p v =
  let st = get_index r p in
  List.fold_left (fun acc run -> acc + Intrun.count_value run v) 0 st.ix_runs

(* Iterate the rows with value [v] at position [p]. The snapshot is
   captured once, so rows added mid-iteration are not visited. *)
let index_iter_rows r p v f =
  let st = get_index r p in
  List.iter
    (fun run ->
      let lo, hi = Intrun.seg run v in
      for i = lo to hi - 1 do
        f (Intrun.row run.(i))
      done)
    st.ix_runs

(* ------------------------------------------------------------------ *)
(* Mutation, journaling, rollback                                      *)

(* Index maintenance shared by [add] and journal replay: no journaling,
   no epoch bump. *)
let add_unlogged db atom =
  let rel_id = Atom.rel_id atom in
  let r =
    match Int_tbl.find_opt db.rels rel_id with
    | Some r -> r
    | None ->
      let r = rel_create atom in
      Int_tbl.add db.rels rel_id r;
      r
  in
  rel_add r atom;
  db.count <- db.count + 1

let remove_unlogged db atom =
  (match rel_of db (Atom.rel_id atom) with
  | None -> ()
  | Some r -> ignore (rel_remove r atom));
  db.count <- db.count - 1

let add db atom =
  if not (Atom.is_ground atom) then
    invalid_arg (Fmt.str "Database.add: non-ground atom %a" Atom.pp atom);
  if mem db atom then false
  else begin
    add_unlogged db atom;
    db.epoch <- db.epoch + 1;
    if db.journaling then db.journal <- Undo_add atom :: db.journal;
    true
  end

let remove db atom =
  if not (mem db atom) then false
  else begin
    remove_unlogged db atom;
    db.epoch <- db.epoch + 1;
    if db.journaling then db.journal <- Undo_remove atom :: db.journal;
    true
  end

let epoch db = db.epoch

let enable_journal db = db.journaling <- true

let rollback db target =
  if target > db.epoch then invalid_arg "Database.rollback: epoch is in the future";
  if target < db.epoch && not db.journaling then
    invalid_arg "Database.rollback: journaling was not enabled";
  while db.epoch > target do
    match db.journal with
    | [] -> invalid_arg "Database.rollback: journal does not reach back to epoch"
    | u :: rest ->
      (match u with
      | Undo_add a -> remove_unlogged db a
      | Undo_remove a -> add_unlogged db a);
      db.journal <- rest;
      db.epoch <- db.epoch - 1
  done

let add_all db atoms = List.iter (fun a -> ignore (add db a)) atoms

let of_atoms atoms =
  let db = create () in
  add_all db atoms;
  db

(* Safe under concurrent [add]: only the live rows present at call
   time are visited ([r_atoms] slots below the snapshot never move
   except under [remove], which is not allowed during iteration). *)
let rel_iter f r =
  let n = r.r_rows in
  for i = 0 to n - 1 do
    if is_live r i then f r.r_atoms.(i)
  done

let iter f db = Int_tbl.iter (fun _ r -> rel_iter f r) db.rels

let fold f db acc =
  let r = ref acc in
  iter (fun a -> r := f a !r) db;
  !r

let to_list db = fold (fun a acc -> a :: acc) db []

let copy db =
  let db' = create () in
  iter (fun a -> ignore (add db' a)) db;
  db'

let facts_of_rel db key =
  match rel_of db (Atom.rel_key_id key) with
  | None -> []
  | Some r ->
    let acc = ref [] in
    rel_iter (fun a -> acc := a :: !acc) r;
    !acc

let rel_cardinal db key =
  match rel_of db (Atom.rel_key_id key) with None -> 0 | Some r -> live_rows r

(* ------------------------------------------------------------------ *)
(* Candidate selection.

   The backtracking join scores and enumerates patterns under a partial
   substitution. Building the substituted atom per search node would
   hash-cons a fresh atom for every scored candidate; instead the
   [_under] variants resolve the pattern's terms on the fly: positions
   that are ground in the pattern read their stored {!Atom.term_ids}
   entry, and substituted variables cost one {!Term.id} lookup. No atom
   or list is allocated. *)

(* Visit every position of [pattern] under [subst] with (index, id or
   -1 when unbound). Annotation slots precede arguments, matching the
   column layout. *)
let iter_bound_ids subst pattern f =
  let ids = Atom.term_ids pattern in
  let visit i t =
    match t with
    | Term.Const _ | Term.Null _ -> f i ids.(i)
    | Term.Var v -> (
      match Subst.find_opt v subst with
      | Some t' when Term.is_ground t' -> f i (Term.id t')
      | Some _ | None -> f i (-1))
  in
  let i = ref 0 in
  List.iter
    (fun t ->
      visit !i t;
      incr i)
    (Atom.ann pattern);
  List.iter
    (fun t ->
      visit !i t;
      incr i)
    (Atom.args pattern)

(* {!candidate_count} of the pattern under a substitution, without
   building the substituted atom. *)
let candidate_count_under db subst pattern =
  match rel_of db (Atom.rel_id pattern) with
  | None -> 0
  | Some r ->
    let best = ref (-1) in
    iter_bound_ids subst pattern (fun p tid ->
        if tid >= 0 then begin
          let n = index_count r p tid in
          if !best < 0 || n < !best then best := n
        end);
    if !best >= 0 then !best else live_rows r

(* {!iter_candidates} of the pattern under a substitution; the caller
   confirms candidates with [Subst.match_atom subst pattern]. The most
   selective bound position's runs drive the scan; the remaining bound
   positions are confirmed with one column read each. *)
let iter_candidates_under db subst pattern f =
  match rel_of db (Atom.rel_id pattern) with
  | None -> ()
  | Some r ->
    (* Collect the bound positions (at most width of them). *)
    let bound_pos = Array.make r.r_width 0 in
    let bound_id = Array.make r.r_width 0 in
    let nbound = ref 0 in
    iter_bound_ids subst pattern (fun p tid ->
        if tid >= 0 then begin
          bound_pos.(!nbound) <- p;
          bound_id.(!nbound) <- tid;
          incr nbound
        end);
    let nbound = !nbound in
    if nbound = 0 then rel_iter f r
    else begin
      (* Most selective position wins (first wins ties). *)
      let best = ref 0 and best_n = ref max_int in
      let empty = ref false in
      for i = 0 to nbound - 1 do
        let n = index_count r bound_pos.(i) bound_id.(i) in
        if n = 0 then empty := true;
        if n < !best_n then begin
          best := i;
          best_n := n
        end
      done;
      if not !empty then begin
        let bi = !best in
        let atoms = r.r_atoms and cols = r.r_cols in
        index_iter_rows r bound_pos.(bi) bound_id.(bi) (fun row ->
            let ok = ref true in
            for i = 0 to nbound - 1 do
              if i <> bi && cols.(bound_pos.(i)).(row) <> bound_id.(i) then ok := false
            done;
            if !ok then f atoms.(row))
      end
    end

(* Substitution-free views: the estimator, streaming enumeration and
   list materialization for an already-substituted pattern. *)
let candidate_count db pattern = candidate_count_under db Subst.empty pattern
let iter_candidates db pattern f = iter_candidates_under db Subst.empty pattern f

let candidates db pattern =
  let acc = ref [] in
  iter_candidates db pattern (fun a -> acc := a :: !acc);
  !acc

exception Found

let exists_under db subst pattern =
  (* Fully ground under [subst] with a long candidate segment: one
     rowid-table probe instead of an index-segment scan (the segment can
     be long even when the fact is absent — e.g. both bound values of
     high degree, the quadratic trap of skewed instances). Short
     segments scan: cheaper than building the substituted atom. *)
  let ground = ref true in
  iter_bound_ids subst pattern (fun _ tid -> if tid < 0 then ground := false);
  if !ground && candidate_count_under db subst pattern > 16 then
    mem db (Subst.apply_atom subst pattern)
  else
    match
      iter_candidates_under db subst pattern (fun fact ->
          match Subst.match_atom subst pattern fact with Some _ -> raise Found | None -> ())
    with
    | () -> false
    | exception Found -> true

(* ------------------------------------------------------------------ *)
(* Distinct-value enumeration: the worst-case-optimal join's probes.   *)

(* The term at column position [pos] of a stored fact. *)
let term_at r atom pos =
  if pos < r.r_ann then List.nth (Atom.ann atom) pos
  else List.nth (Atom.args atom) (pos - r.r_ann)

(* Positions of [pattern] holding the (unbound) variable [var]. *)
let var_positions pattern var =
  let ps = ref [] in
  let i = ref 0 in
  let visit t =
    (match t with Term.Var v when String.equal v var -> ps := !i :: !ps | _ -> ());
    incr i
  in
  List.iter visit (Atom.ann pattern);
  List.iter visit (Atom.args pattern);
  List.rev !ps

(* The conditions under which [distinct_ids_under] produces an array,
   checked without materializing anything: the WCOJ executor tests every
   holder first, so one ineligible holder does not cost a full
   distinct-value walk of the others. *)
let fast_var_eligible db subst pattern ~var =
  match rel_of db (Atom.rel_id pattern) with
  | None -> true
  | Some _ -> (
    match var_positions pattern var with
    | [ _ ] when not (Subst.mem var subst) ->
      let bound = ref false in
      iter_bound_ids subst pattern (fun _ tid -> if tid >= 0 then bound := true);
      not !bound
    | _ -> false)

let distinct_ids_under db subst pattern ~var =
  match rel_of db (Atom.rel_id pattern) with
  | None -> Some [||]
  | Some r -> (
    match var_positions pattern var with
    | [ p ] when not (Subst.mem var subst) ->
      let bound = ref false in
      iter_bound_ids subst pattern (fun _ tid -> if tid >= 0 then bound := true);
      if !bound then None
      else begin
        let st = get_index r p in
        let acc = ref [] and n = ref 0 in
        Intrun.iter_distinct_values st.ix_runs (fun v _ ->
            acc := v :: !acc;
            incr n);
        let out = Array.make !n 0 in
        List.iteri (fun i v -> out.(!n - 1 - i) <- v) !acc;
        Some out
      end
    | _ -> None)

let iter_values_of_ids db pattern ~var ids f =
  match rel_of db (Atom.rel_id pattern) with
  | None -> ()
  | Some r -> (
    match var_positions pattern var with
    | p :: _ ->
      let st = get_index r p in
      Array.iter
        (fun v ->
          (* First witnessing row across the runs. *)
          let witness = ref (-1) in
          List.iter
            (fun run ->
              let lo, hi = Intrun.seg run v in
              if lo < hi then
                let row = Intrun.row run.(lo) in
                if !witness < 0 || row < !witness then witness := row)
            st.ix_runs;
          if !witness >= 0 then f (term_at r r.r_atoms.(!witness) p))
        ids
    | [] -> ())

let iter_var_values_under db subst pattern ~var f =
  match rel_of db (Atom.rel_id pattern) with
  | None -> ()
  | Some r -> (
    match var_positions pattern var with
    | [] -> ()
    | p0 :: rest_ps ->
      let bound_pos = Array.make r.r_width 0 in
      let bound_id = Array.make r.r_width 0 in
      let nbound = ref 0 in
      iter_bound_ids subst pattern (fun p tid ->
          if tid >= 0 then begin
            bound_pos.(!nbound) <- p;
            bound_id.(!nbound) <- tid;
            incr nbound
          end);
      let nbound = !nbound in
      let cols = r.r_cols in
      (* A row is consistent when every bound position matches and the
         variable's positions all carry the same value. *)
      let consistent row v =
        let ok = ref true in
        List.iter (fun p -> if cols.(p).(row) <> v then ok := false) rest_ps;
        for i = 0 to nbound - 1 do
          if cols.(bound_pos.(i)).(row) <> bound_id.(i) then ok := false
        done;
        !ok
      in
      if nbound = 0 && rest_ps = [] then begin
        (* Pure column scan: the sorted runs enumerate the distinct
           values directly, in ascending id order. *)
        let st = get_index r p0 in
        Intrun.iter_distinct_values st.ix_runs (fun _ row -> f (term_at r r.r_atoms.(row) p0))
      end
      else begin
        (* Drive from the most selective bound position (or the whole
           relation) and deduplicate values on the fly. *)
        let seen = Int_tbl.create 16 in
        let visit row =
          let v = cols.(p0).(row) in
          if consistent row v && not (Int_tbl.mem seen v) then begin
            Int_tbl.add seen v ();
            f (term_at r r.r_atoms.(row) p0)
          end
        in
        if nbound = 0 then
          for row = 0 to r.r_rows - 1 do
            if is_live r row then visit row
          done
        else begin
          let best = ref 0 and best_n = ref max_int in
          let empty = ref false in
          for i = 0 to nbound - 1 do
            let n = index_count r bound_pos.(i) bound_id.(i) in
            if n = 0 then empty := true;
            if n < !best_n then begin
              best := i;
              best_n := n
            end
          done;
          if not !empty then index_iter_rows r bound_pos.(!best) bound_id.(!best) visit
        end
      end)

(* ------------------------------------------------------------------ *)

(* Active domain: every term occurring in a non-ACDom fact. *)
let active_domain db =
  fold
    (fun a acc ->
      if Atom.rel a = acdom_rel then acc
      else List.fold_left (fun acc t -> Term.Set.add t acc) acc (Atom.terms a))
    db Term.Set.empty

let materialize_acdom db =
  Term.Set.iter
    (fun t -> ignore (add db (Atom.make acdom_rel [ t ])))
    (active_domain db)

(* Relations present in the database. *)
let relations db = Int_tbl.fold (fun rel_id _ acc -> Atom.rel_key_of_id rel_id :: acc) db.rels []

let relation_ids db = Int_tbl.fold (fun rel_id _ acc -> rel_id :: acc) db.rels []

let restrict db keep =
  let db' = create () in
  iter (fun a -> if keep a then ignore (add db' a)) db;
  db'

(* Set equality of the stored facts. *)
let equal db1 db2 =
  cardinal db1 = cardinal db2 && fold (fun a ok -> ok && mem db2 a) db1 true

(* ------------------------------------------------------------------ *)
(* Storage metrics                                                     *)

type rel_stats = {
  rs_rel : Atom.rel_key;
  rs_rows : int;
  rs_runs : int;
  rs_bytes : int;  (** resident bytes of columns, row map and runs *)
}

let storage_stats db =
  let word = Sys.word_size / 8 in
  Int_tbl.fold
    (fun rel_id r acc ->
      let cap = Array.length r.r_atoms in
      let runs = ref 0 and run_words = ref 0 in
      Array.iter
        (fun ix ->
          let st = Atomic.get ix in
          List.iter
            (fun run ->
              incr runs;
              run_words := !run_words + Array.length run)
            st.ix_runs)
        r.r_ix;
      let words =
        (cap * (r.r_width + 1)) (* columns + row->fact array *)
        + (cap / word) (* liveness bytes *)
        + !run_words
        + (2 * Atom.Tbl.length r.r_rowid) (* row map entries, approx. *)
      in
      {
        rs_rel = Atom.rel_key_of_id rel_id;
        rs_rows = live_rows r;
        rs_runs = !runs;
        rs_bytes = words * word;
      }
      :: acc)
    db.rels []

(* ------------------------------------------------------------------ *)
(* Answer extraction                                                   *)

module Tuple_set = Set.Make (struct
  type t = Term.t list

  let compare = List.compare Term.compare
end)

(* Sorted, deduplicated constant argument tuples of every relation
   named [name] (any arity): folds the relation stores directly into a
   set — no intermediate fact list, no quadratic [sort_uniq]. *)
let constant_tuples db name =
  Int_tbl.fold
    (fun rel_id r acc ->
      let n, _, _ = Atom.rel_key_of_id rel_id in
      if String.equal n name then begin
        let acc = ref acc in
        rel_iter
          (fun a ->
            if List.for_all Term.is_const (Atom.terms a) then acc := Tuple_set.add (Atom.args a) !acc)
          r;
        !acc
      end
      else acc)
    db.rels Tuple_set.empty
  |> Tuple_set.elements

let pp ppf db =
  let facts = List.sort Atom.compare (to_list db) in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Atom.pp) facts
