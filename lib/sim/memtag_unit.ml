type cause = Conflict | Capacity

(* The tag set as two dense arrays (DESIGN §12): entry [k < len] pairs
   a tracked line [lines.(k)] with its state [sts.(k)]. Sets hold a
   handful of lines, so a linear scan is the lookup; [remove] moves the
   last entry into the hole, and [clear] resets the length and the
   evidence. *)

let st_tagged = 0 and st_conflict = 1 and st_capacity = 2

type t = {
  mutable lines : int array;
  mutable sts : int array;
  mutable len : int;                (* tracked lines (tagged or evicted) *)
  mutable max_tags : int;
  mutable overflow : bool;
  mutable evicted_conflict : int;
  mutable evicted_capacity : int;
}

let initial_capacity = 16

let create ~max_tags =
  if max_tags <= 0 then invalid_arg "Memtag_unit.create: max_tags must be positive";
  {
    lines = Array.make initial_capacity 0;
    sts = Array.make initial_capacity 0;
    len = 0;
    max_tags;
    overflow = false;
    evicted_conflict = 0;
    evicted_capacity = 0;
  }

(* Entry index of [line], or -1 if absent. Indices stay below [len],
   which never exceeds the arrays' length, so the scan reads unchecked. *)
let[@inline] find t line =
  let lines = t.lines in
  let i = ref (t.len - 1) in
  while !i >= 0 && Array.unsafe_get lines !i <> line do
    decr i
  done;
  !i

let[@inline never] grow t =
  let n = 2 * Array.length t.lines in
  let extend a = Array.append a (Array.make (n - Array.length a) 0) in
  t.lines <- extend t.lines;
  t.sts <- extend t.sts

(* An absent line is appended as tagged; a present one, tagged or
   evicted, is left as it is. *)
let[@inline] add t line =
  if find t line < 0 then begin
    if t.len = Array.length t.lines then grow t;
    Array.unsafe_set t.lines t.len line;
    Array.unsafe_set t.sts t.len st_tagged;
    t.len <- t.len + 1;
    if t.len > t.max_tags then t.overflow <- true
  end

(* Conflict evidence is sticky: the remote write hit the line while the
   tag was held, so [evicted_conflict] survives until [clear]. A capacity
   record only predicts a spurious failure, and removing the tag
   withdraws the claim it protected, so it leaves with the entry. *)
let[@inline] remove t line =
  let i = find t line in
  if i >= 0 then begin
    if t.sts.(i) = st_capacity then t.evicted_capacity <- t.evicted_capacity - 1;
    let last = t.len - 1 in
    t.lines.(i) <- t.lines.(last);
    t.sts.(i) <- t.sts.(last);
    t.len <- last
  end

let[@inline] is_tagged t line = find t line >= 0

let live t line =
  let i = find t line in
  i >= 0 && t.sts.(i) = st_tagged

let on_evict t line cause =
  let i = find t line in
  if i >= 0 then begin
    let st = t.sts.(i) in
    (* A conflict supersedes a capacity record: the failure is real. *)
    if cause = Conflict && st <> st_conflict then begin
      if st = st_capacity then t.evicted_capacity <- t.evicted_capacity - 1;
      t.evicted_conflict <- t.evicted_conflict + 1;
      t.sts.(i) <- st_conflict
    end
    else if cause = Capacity && st = st_tagged then begin
      t.evicted_capacity <- t.evicted_capacity + 1;
      t.sts.(i) <- st_capacity
    end
  end

type verdict = Ok | Fail_conflict | Fail_spurious

let[@inline] check t =
  if t.evicted_conflict > 0 then Fail_conflict
  else if t.evicted_capacity > 0 || t.overflow then Fail_spurious
  else Ok

let[@inline] overflowed t = t.overflow

let max_tags t = t.max_tags

(* Fault-injection hook. Shrinking below the tracked lines latches the
   overflow flag, as a capacity the set already exceeds would, so the next
   validation fails spuriously and the retry runs under the new budget. *)
let set_max_tags t n =
  if n <= 0 then invalid_arg "Memtag_unit.set_max_tags: must be positive";
  t.max_tags <- n;
  if t.len > n then t.overflow <- true

let count t = t.len

let clear t =
  t.len <- 0;
  t.overflow <- false;
  t.evicted_conflict <- 0;
  t.evicted_capacity <- 0

(* Insertion sort of the entries by line, each state moving with its
   line; sets are small. *)
let sort t =
  let lines = t.lines and sts = t.sts in
  for i = 1 to t.len - 1 do
    let x = lines.(i) and s = sts.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && lines.(!j) > x do
      lines.(!j + 1) <- lines.(!j);
      sts.(!j + 1) <- sts.(!j);
      decr j
    done;
    lines.(!j + 1) <- x;
    sts.(!j + 1) <- s
  done

let[@inline] line t k = t.lines.(k)
