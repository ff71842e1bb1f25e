type addr = int

let null = 0

(* Memory is a growable array of fixed-size chunks so that allocation never
   copies and address arithmetic stays cheap. *)
let chunk_log2 = 16
let chunk_words = 1 lsl chunk_log2
let chunk_mask = chunk_words - 1

type t = {
  line_words : int;
  mutable chunks : int array array;
  mutable next_free : addr;
}

(* Chunks are allocated up to the allocation frontier only; the table
   slots past it hold the shared empty array until [alloc] reaches them,
   so a doubled table costs one pointer per slot, not a zeroed chunk. *)
let create cfg =
  let line_words = Config.line_words cfg in
  {
    line_words;
    chunks = [| Array.make chunk_words 0 |];
    (* Skip line 0 entirely so that address 0 is an unambiguous null. *)
    next_free = line_words;
  }

let ensure_capacity t addr =
  let last = addr lsr chunk_log2 in
  if last >= Array.length t.chunks then begin
    let chunks = Array.make (max (last + 1) (2 * Array.length t.chunks)) [||] in
    Array.blit t.chunks 0 chunks 0 (Array.length t.chunks);
    t.chunks <- chunks
  end;
  (* Every chunk below the old frontier exists already. *)
  let i = ref last in
  while !i >= 0 && Array.length t.chunks.(!i) = 0 do
    t.chunks.(!i) <- Array.make chunk_words 0;
    decr i
  done

let alloc t ~words =
  if words <= 0 then invalid_arg "Memory.alloc: words must be positive";
  let base = t.next_free in
  let rounded = (words + t.line_words - 1) land lnot (t.line_words - 1) in
  t.next_free <- base + rounded;
  ensure_capacity t (t.next_free - 1);
  base

let allocated_words t = t.next_free

let check t addr =
  if addr <= 0 || addr >= t.next_free then
    invalid_arg (Printf.sprintf "Memory: address %d out of bounds" addr)

(* The bounds check is debug-gated (DESIGN §12): with checks off a stray
   address below the last allocated chunk reads or writes that chunk,
   mirroring release-mode hardware; one past it traps on array bounds. *)
let get t addr =
  if Debug.on () then check t addr;
  t.chunks.(addr lsr chunk_log2).(addr land chunk_mask)

let set t addr v =
  if Debug.on () then check t addr;
  t.chunks.(addr lsr chunk_log2).(addr land chunk_mask) <- v
