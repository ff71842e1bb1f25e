type state = I | S | E | M

(* Flat parallel planes (DESIGN §12): slot [set * ways + way] of [lines]
   holds the resident line (-1 when empty), [sts] its MESI state as an int
   (0=I 1=S 2=E 3=M), [lrus] its LRU stamp from the global [tick]. No
   per-way records to chase — a probe is a short scan over contiguous
   ints, and the hot path addresses a hit by slot index so it never scans
   twice. *)
type t = {
  set_mask : int;
  ways : int;
  lines : int array;
  sts : int array;
  lrus : int array;
  mutable tick : int;
  mutable evicted_st : int;
}

let[@inline] int_of_st = function I -> 0 | S -> 1 | E -> 2 | M -> 3
let[@inline] st_of_int = function 0 -> I | 1 -> S | 2 -> E | _ -> M

let create ~sets_log2 ~ways =
  if sets_log2 < 0 || ways <= 0 then invalid_arg "Cache.create";
  let slots = (1 lsl sets_log2) * ways in
  {
    set_mask = (1 lsl sets_log2) - 1;
    ways;
    lines = Array.make slots (-1);
    sts = Array.make slots 0;
    lrus = Array.make slots 0;
    tick = 0;
    evicted_st = 0;
  }

(* Hot slot-addressed interface ---------------------------------------- *)

(* Slot index of [line] if resident (state <> I), else -1. All slot
   arithmetic stays within [lines] by construction, so the scans use
   unchecked reads. A loop, not a local recursive function: the latter
   would allocate its closure on every probe. *)
let[@inline] probe t line =
  let i = ref ((line land t.set_mask) * t.ways) in
  let lim = !i + t.ways in
  while
    !i < lim
    && not (Array.unsafe_get t.lines !i = line && Array.unsafe_get t.sts !i <> 0)
  do
    incr i
  done;
  if !i < lim then !i else -1

let[@inline] state_at t slot = st_of_int (Array.unsafe_get t.sts slot)

let[@inline] bump t slot =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.lrus slot t.tick

let[@inline] touch_at t slot = bump t slot

(* [st] must not be [I] (removal goes through [remove]/[set_state]). *)
let[@inline] set_state_at t slot st =
  Array.unsafe_set t.sts slot (int_of_st st);
  bump t slot

(* Line-addressed interface -------------------------------------------- *)

let find t line =
  let slot = probe t line in
  if slot < 0 then I else state_at t slot

let touch t line =
  let slot = probe t line in
  if slot >= 0 then bump t slot

let set_state t line st =
  let slot = probe t line in
  if slot >= 0 then
    if st = I then begin
      t.lines.(slot) <- -1;
      t.sts.(slot) <- 0
    end
    else begin
      t.sts.(slot) <- int_of_st st;
      bump t slot
    end

let remove t line = set_state t line I

let insert t line st =
  if st = I then invalid_arg "Cache.insert: cannot insert in state I";
  if Debug.on () && find t line <> I then
    invalid_arg "Cache.insert: line already resident";
  let base = (line land t.set_mask) * t.ways in
  (* Prefer an empty way; otherwise evict the LRU way. LRU stamps are
     drawn from the global tick, so non-empty stamps are distinct. *)
  let victim = ref base in
  let empty = ref (-1) in
  for i = base to base + t.ways - 1 do
    if Array.unsafe_get t.sts i = 0 then begin
      if !empty < 0 then empty := i
    end
    else if
      Array.unsafe_get t.lrus i < Array.unsafe_get t.lrus !victim
      || Array.unsafe_get t.sts !victim = 0
    then victim := i
  done;
  if !empty >= 0 then begin
    let i = !empty in
    t.lines.(i) <- line;
    t.sts.(i) <- int_of_st st;
    bump t i;
    -1
  end
  else begin
    let i = !victim in
    let evicted = t.lines.(i) in
    t.evicted_st <- t.sts.(i);
    t.lines.(i) <- line;
    t.sts.(i) <- int_of_st st;
    bump t i;
    evicted
  end

let evicted_state t = st_of_int t.evicted_st

let iter t f =
  for i = 0 to Array.length t.lines - 1 do
    if t.sts.(i) <> 0 then f t.lines.(i) (st_of_int t.sts.(i))
  done

let population t =
  let n = ref 0 in
  for i = 0 to Array.length t.sts - 1 do
    if t.sts.(i) <> 0 then incr n
  done;
  !n
