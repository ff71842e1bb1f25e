type addr = int

let null = 0

(* Memory is a growable table of fixed-size chunks so that allocation never
   copies a chunk and address arithmetic stays cheap. *)
let chunk_log2 = 16
let chunk_words = 1 lsl chunk_log2
let chunk_mask = chunk_words - 1

(* [chunks] holds exactly the chunks up to the allocation frontier, so its
   bounds check is the only one an access needs. *)
type t = { line_words : int; mutable chunks : int array array; mutable next_free : addr }

let create cfg =
  let line_words = Config.line_words cfg in
  (* Skip line 0 entirely so that address 0 is an unambiguous null. *)
  { line_words; chunks = [| Array.make chunk_words 0 |]; next_free = line_words }

(* Chunks never move; only the table of pointers is copied. *)
let ensure_capacity t addr =
  let n = Array.length t.chunks and len = (addr lsr chunk_log2) + 1 in
  if len > n then
    t.chunks <- Array.init len (fun i -> if i < n then t.chunks.(i) else Array.make chunk_words 0)

let alloc t ~words =
  if words <= 0 then invalid_arg "Memory.alloc: words must be positive";
  let base = t.next_free in
  let rounded = (words + t.line_words - 1) land lnot (t.line_words - 1) in
  t.next_free <- base + rounded;
  ensure_capacity t (t.next_free - 1);
  base

let allocated_words t = t.next_free - t.line_words

let[@inline never] check t addr =
  if addr <= 0 || addr >= t.next_free then
    invalid_arg (Printf.sprintf "Memory: address %d out of bounds" addr)

(* The bounds check is debug-gated (DESIGN §12): with checks off a stray
   address below the frontier's chunk end reads or writes that chunk,
   mirroring release-mode hardware; one past it traps on the bounds of
   the chunk table. *)
let[@inline] get t addr =
  if Debug.on () then check t addr;
  Array.unsafe_get t.chunks.(addr lsr chunk_log2) (addr land chunk_mask)

let[@inline] set t addr v =
  if Debug.on () then check t addr;
  Array.unsafe_set t.chunks.(addr lsr chunk_log2) (addr land chunk_mask) v
