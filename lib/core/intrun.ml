(** Sorted integer runs; see the interface for the representation. *)

let half_bits = 31
let half_mask = (1 lsl half_bits) - 1

let pack v r = (v lsl half_bits) lor r
let value pk = pk lsr half_bits
let row pk = pk land half_mask

(* Monomorphic int compare: Array.sort with a polymorphic compare would
   go through the generic comparator on every element. *)
let sort (a : int array) = Array.sort (fun (x : int) y -> compare x y) a

let merge (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x <= y then begin incr i; out.(!k) <- x end
    else begin incr j; out.(!k) <- y end;
    incr k
  done;
  if !i < la then Array.blit a !i out !k (la - !i);
  if !j < lb then Array.blit b !j out !k (lb - !j);
  out

(* K-way merge of [runs] into an array of the [live] entries that
   survive [keep]. *)
let kway_filter runs keep live =
  let n = Array.length runs in
  let out = Array.make live 0 in
  (* [pos.(i)]: run [i]'s next surviving entry (dead ones skipped). *)
  let pos = Array.make n 0 in
  let skip i =
    let run = runs.(i) in
    while pos.(i) < Array.length run && not (keep (row run.(pos.(i)))) do
      pos.(i) <- pos.(i) + 1
    done
  in
  for i = 0 to n - 1 do
    skip i
  done;
  for k = 0 to live - 1 do
    let best = ref (-1) and best_pk = ref max_int in
    for i = 0 to n - 1 do
      let run = runs.(i) in
      if pos.(i) < Array.length run && run.(pos.(i)) < !best_pk then begin
        best := i;
        best_pk := run.(pos.(i))
      end
    done;
    out.(k) <- !best_pk;
    pos.(!best) <- pos.(!best) + 1;
    skip !best
  done;
  out

let merge_filter runs keep =
  let runs = Array.of_list runs in
  let live = ref 0 in
  Array.iter (Array.iter (fun pk -> if keep (row pk) then incr live)) runs;
  if Array.length runs = 1 && !live = Array.length runs.(0) then runs.(0)
  else kway_filter runs keep !live

let lower (a : int array) key =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let seg a v = (lower a (pack v 0), lower a (pack (v + 1) 0))

let count_value a v =
  let lo, hi = seg a v in
  hi - lo

let gallop (a : int array) key ~lo =
  let n = Array.length a in
  if lo >= n || a.(lo) >= key then lo
  else begin
    (* Doubling probe: find a bracket [lo + step/2, lo + step]. *)
    let step = ref 1 in
    while lo + !step < n && a.(lo + !step) < key do
      step := !step lsl 1
    done;
    let l = ref (lo + (!step lsr 1)) and h = ref (min n (lo + !step + 1)) in
    while !l < !h do
      let mid = (!l + !h) lsr 1 in
      if a.(mid) < key then l := mid + 1 else h := mid
    done;
    !l
  end

let inter (a : int array) (b : int array) =
  (* Gallop through the longer array driven by the shorter. *)
  let a, b = if Array.length a <= Array.length b then (a, b) else (b, a) in
  let la = Array.length a in
  let out = Array.make (min la (Array.length b)) 0 in
  let k = ref 0 and j = ref 0 in
  for i = 0 to la - 1 do
    let v = a.(i) in
    j := gallop b v ~lo:!j;
    if !j < Array.length b && b.(!j) = v then begin
      out.(!k) <- v;
      incr k
    end
  done;
  Array.sub out 0 !k

let iter_distinct_values runs f =
  let runs = Array.of_list (List.filter (fun r -> Array.length r > 0) runs) in
  let n = Array.length runs in
  let pos = Array.make n 0 in
  let exhausted = ref 0 in
  while !exhausted < n do
    (* Smallest head across the runs: its value is the next distinct
       value, with the smallest witnessing row (heads are sorted by
       (value, row), so the minimal packed head has the minimal row). *)
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if pos.(i) < Array.length runs.(i) then
        let pk = runs.(i).(pos.(i)) in
        if !best < 0 || pk < !best then best := pk
    done;
    if !best < 0 then exhausted := n
    else begin
      let v = value !best in
      f v (row !best);
      (* Skip every entry of this value in every run. *)
      exhausted := 0;
      for i = 0 to n - 1 do
        (if pos.(i) < Array.length runs.(i) then
           pos.(i) <- gallop runs.(i) (pack (v + 1) 0) ~lo:pos.(i));
        if pos.(i) >= Array.length runs.(i) then incr exhausted
      done
    end
  done
