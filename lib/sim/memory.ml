type addr = int

let null = 0

(* Memory is a growable table of fixed-size chunks so that allocation never
   copies and address arithmetic stays cheap. *)
let chunk_log2 = 16
let chunk_words = 1 lsl chunk_log2
let chunk_mask = chunk_words - 1

(* Chunk [i] is either narrow — [narrow.(i)] holds its words as
   sign-extended 4-byte integers and [wide.(i)] is empty — or wide —
   [narrow.(i)] is [Bytes.empty] and [wide.(i)] holds them as OCaml ints.
   A chunk starts narrow and turns wide the first time a word outside the
   signed 32-bit range is written into it; it never turns back. Both
   tables hold exactly the chunks up to the allocation frontier, so the
   bounds check on [narrow] is the only one an access needs. *)
type t = {
  line_words : int;
  mutable narrow : Bytes.t array;
  mutable wide : int array array;
  mutable next_free : addr;
}

(* Native-endian: words are only ever read back through the same
   primitive. The compiler fuses [Int32.to_int]/[Int32.of_int] with these,
   so no [int32] is boxed. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let narrow_chunk () = Bytes.make (4 * chunk_words) '\000'

let create cfg =
  let line_words = Config.line_words cfg in
  {
    line_words;
    narrow = [| narrow_chunk () |];
    wide = [| [||] |];
    (* Skip line 0 entirely so that address 0 is an unambiguous null. *)
    next_free = line_words;
  }

(* Chunks never move; only the two tables of pointers are copied. *)
let ensure_capacity t addr =
  let n = Array.length t.wide and len = (addr lsr chunk_log2) + 1 in
  if len > n then begin
    t.narrow <- Array.init len (fun i -> if i < n then t.narrow.(i) else narrow_chunk ());
    t.wide <- Array.init len (fun i -> if i < n then t.wide.(i) else [||])
  end

let alloc t ~words =
  if words <= 0 then invalid_arg "Memory.alloc: words must be positive";
  let base = t.next_free in
  let rounded = (words + t.line_words - 1) land lnot (t.line_words - 1) in
  t.next_free <- base + rounded;
  ensure_capacity t (t.next_free - 1);
  base

let allocated_words t = t.next_free - t.line_words

let check t addr =
  if addr <= 0 || addr >= t.next_free then
    invalid_arg (Printf.sprintf "Memory: address %d out of bounds" addr)

(* The switch: copy narrow chunk [ci] into a fresh int array and drop its
   bytes. *)
let widen t ci =
  let b = t.narrow.(ci) in
  t.wide.(ci) <- Array.init chunk_words (fun i -> Int32.to_int (get32 b (i lsl 2)));
  t.narrow.(ci) <- Bytes.empty

(* The bounds check is debug-gated (DESIGN §12): with checks off a stray
   address below the frontier's chunk end reads or writes that chunk,
   mirroring release-mode hardware; one past it traps on the bounds of
   the [narrow] table. [Machine]'s inline copies of these two bodies must
   stay in step with them. *)
let get t addr =
  if Debug.on () then check t addr;
  let ci = addr lsr chunk_log2 and off = addr land chunk_mask in
  let b = t.narrow.(ci) in
  if b != Bytes.empty then Int32.to_int (get32 b (off lsl 2))
  else Array.unsafe_get (Array.unsafe_get t.wide ci) off

let set t addr v =
  if Debug.on () then check t addr;
  let ci = addr lsr chunk_log2 and off = addr land chunk_mask in
  let b = t.narrow.(ci) in
  if b == Bytes.empty then Array.unsafe_set (Array.unsafe_get t.wide ci) off v
  (* [v] survives a round trip through 32 signed bits. *)
  else if (v lsl 31) asr 31 = v then set32 b (off lsl 2) (Int32.of_int v)
  else begin
    widen t ci;
    Array.unsafe_set t.wide.(ci) off v
  end
