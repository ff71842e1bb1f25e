type cause = Conflict | Capacity

(* Open-addressed int table (DESIGN §12): one slot word per tracked line,
   linear probing with tombstones. Slot encoding:

     0                         empty
     1                         tombstone
     ((line+1) lsl 2) lor st   occupied; st: 0 Tagged, 1 Evicted Conflict,
                                             2 Evicted Capacity

   [line + 1 >= 1] keeps every occupied word >= 4, so line 0 can never
   collide with the sentinels. [journal] records each slot that became
   occupied since the last [clear], so [clear] zeroes O(inserts) slots
   instead of the whole array. *)

let st_tagged = 0
let st_conflict = 1
let st_capacity = 2

type t = {
  mutable slots : int array;        (* power-of-two length *)
  mutable journal : int array;
  mutable journal_len : int;
  mutable len : int;                (* occupied slots (tagged or evicted) *)
  mutable used : int;               (* occupied + tombstones *)
  mutable max_tags : int;
  mutable overflow : bool;
  mutable evicted_conflict : int;
  mutable evicted_capacity : int;
}

let initial_slots = 128

let create ~max_tags =
  if max_tags <= 0 then invalid_arg "Memtag_unit.create: max_tags must be positive";
  {
    slots = Array.make initial_slots 0;
    journal = Array.make initial_slots 0;
    journal_len = 0;
    len = 0;
    used = 0;
    max_tags;
    overflow = false;
    evicted_conflict = 0;
    evicted_capacity = 0;
  }

let[@inline] hash line mask = (line * 0x9E3779B1) land mask

(* Slot index of [line], or -1 if absent; an empty unit answers without
   probing. Probe indices are masked into [slots], so the scans read it
   unchecked. *)
let[@inline] find_slot t line =
  if t.len = 0 then -1
  else begin
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let key = line + 1 in
    let i = ref (hash line mask) in
    while
      let v = Array.unsafe_get slots !i in
      v <> 0 && not (v >= 4 && v lsr 2 = key)
    do
      i := (!i + 1) land mask
    done;
    if Array.unsafe_get slots !i = 0 then -1 else !i
  end

let[@inline never] journal_push t slot =
  if t.journal_len = Array.length t.journal then begin
    let j = Array.make (2 * t.journal_len) 0 in
    Array.blit t.journal 0 j 0 t.journal_len;
    t.journal <- j
  end;
  t.journal.(t.journal_len) <- slot;
  t.journal_len <- t.journal_len + 1

(* Rebuild without tombstones, doubling if the table is genuinely full. *)
let[@inline never] rehash t =
  let old = t.slots in
  let cap = Array.length old in
  let cap' = if t.len * 4 > cap then 2 * cap else cap in
  t.slots <- Array.make cap' 0;
  t.journal_len <- 0;
  t.used <- t.len;
  let mask = cap' - 1 in
  Array.iter
    (fun v ->
      if v >= 4 then begin
        let i = ref (hash (v lsr 2 - 1) mask) in
        while t.slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        t.slots.(!i) <- v;
        journal_push t !i
      end)
    old

let[@inline] add t line =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let key = line + 1 in
  let i = ref (hash line mask) in
  let tomb = ref (-1) in
  while
    let v = Array.unsafe_get slots !i in
    v <> 0 && v lsr 2 <> key
  do
    if Array.unsafe_get slots !i = 1 && !tomb < 0 then tomb := !i;
    i := (!i + 1) land mask
  done;
  (* An absent line takes the first tombstone on its probe path, or else
     the empty slot that ended it (journalled); a present one, tagged or
     evicted, is left as it is. *)
  if Array.unsafe_get slots !i = 0 then begin
    (if !tomb >= 0 then Array.unsafe_set slots !tomb (key lsl 2)
     else begin
       Array.unsafe_set slots !i (key lsl 2);
       t.used <- t.used + 1;
       journal_push t !i
     end);
    t.len <- t.len + 1;
    if t.len > t.max_tags then t.overflow <- true;
    if 4 * (t.used + 1) > 3 * Array.length slots then rehash t
  end

(* Conflict evidence is sticky: a concurrent writer hit the line *while
   the tag was held*, so the reads made under that tag may be torn
   whether or not the tag is later withdrawn — [evicted_conflict] must
   survive until [clear] (the next validation boundary). A capacity
   record, by contrast, only predicts a *spurious* failure; removing the
   tag withdraws the claim it was protecting, so that evidence is
   dropped with the entry. *)
let[@inline] remove t line =
  let i = find_slot t line in
  if i >= 0 then begin
    (match t.slots.(i) land 3 with
    | 2 -> t.evicted_capacity <- t.evicted_capacity - 1
    | _ -> ());
    t.slots.(i) <- 1;
    t.len <- t.len - 1
  end

let[@inline] is_tagged t line = find_slot t line >= 0

let live t line =
  let i = find_slot t line in
  i >= 0 && t.slots.(i) land 3 = st_tagged

let on_evict t line cause =
  let i = find_slot t line in
  if i >= 0 then begin
    let key_bits = t.slots.(i) land lnot 3 in
    match t.slots.(i) land 3 with
    | 1 (* Evicted Conflict *) -> ()
    | 2 (* Evicted Capacity *) ->
        (* A conflict supersedes a capacity record: the failure is real. *)
        if cause = Conflict then begin
          t.evicted_capacity <- t.evicted_capacity - 1;
          t.evicted_conflict <- t.evicted_conflict + 1;
          t.slots.(i) <- key_bits lor st_conflict
        end
    | _ (* Tagged *) ->
        if cause = Conflict then begin
          t.evicted_conflict <- t.evicted_conflict + 1;
          t.slots.(i) <- key_bits lor st_conflict
        end
        else begin
          t.evicted_capacity <- t.evicted_capacity + 1;
          t.slots.(i) <- key_bits lor st_capacity
        end
  end

type verdict = Ok | Fail_conflict | Fail_spurious

let[@inline] check t =
  if t.evicted_conflict > 0 then Fail_conflict
  else if t.evicted_capacity > 0 || t.overflow then Fail_spurious
  else Ok

let[@inline] overflowed t = t.overflow

let max_tags t = t.max_tags

(* Fault-injection hook: retargets the capacity ceiling mid-run. Shrinking
   below the number of currently tracked lines latches the overflow flag —
   the hardware analogue of a capacity the tag set already exceeds — so
   the victim's next validation fails spuriously and it retries under the
   new, tighter budget (after [clear] resets the latch). *)
let set_max_tags t n =
  if n <= 0 then invalid_arg "Memtag_unit.set_max_tags: must be positive";
  t.max_tags <- n;
  if t.len > n then t.overflow <- true

let count t = t.len

let clear t =
  for k = 0 to t.journal_len - 1 do
    t.slots.(t.journal.(k)) <- 0
  done;
  t.journal_len <- 0;
  t.len <- 0;
  t.used <- 0;
  t.overflow <- false;
  t.evicted_conflict <- 0;
  t.evicted_capacity <- 0

let fill_lines t a =
  let n = ref 0 in
  for k = 0 to t.journal_len - 1 do
    let v = t.slots.(t.journal.(k)) in
    if v >= 4 then begin
      a.(!n) <- (v lsr 2) - 1;
      incr n
    end
  done;
  !n
