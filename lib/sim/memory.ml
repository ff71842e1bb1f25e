module Chunk_table = Mt_obs.Chunk_table

type addr = int

let null = 0

(* Memory is a growable table of fixed-size chunks so that allocation never
   copies and address arithmetic stays cheap. *)
let chunk_log2 = 16
let chunk_words = 1 lsl chunk_log2
let chunk_mask = chunk_words - 1

(* Chunk [i] is either narrow — [narrow.(i)] holds its words as
   sign-extended 4-byte integers — or wide — [narrow.(i)] is [Bytes.empty]
   and chunk [i] of the [wide] table holds them as OCaml ints. A chunk
   starts narrow and turns wide the first time a word outside the signed
   32-bit range is written into it; it never turns back. [narrow] holds
   exactly the chunks up to the allocation frontier, so its bounds check
   is the only one an access needs. *)
type t = {
  line_words : int;
  mutable narrow : Bytes.t array;
  wide : Chunk_table.t;
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
    wide = Chunk_table.create ~chunk_log2;
    (* Skip line 0 entirely so that address 0 is an unambiguous null. *)
    next_free = line_words;
  }

(* Chunks never move; only the table of pointers is copied. *)
let ensure_capacity t addr =
  let n = Array.length t.narrow and len = (addr lsr chunk_log2) + 1 in
  if len > n then
    t.narrow <- Array.init len (fun i -> if i < n then t.narrow.(i) else narrow_chunk ())

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

(* The switch: copy narrow chunk [ci] into its wide chunk and drop its
   bytes. *)
let[@inline never] widen t ci =
  let b = t.narrow.(ci) and ch = Chunk_table.chunk t.wide ci in
  for i = 0 to chunk_words - 1 do
    ch.(i) <- Int32.to_int (get32 b (i lsl 2))
  done;
  t.narrow.(ci) <- Bytes.empty

(* The bounds check is debug-gated (DESIGN §12): with checks off a stray
   address below the frontier's chunk end reads or writes that chunk,
   mirroring release-mode hardware; one past it traps on the bounds of
   the [narrow] table. *)
let[@inline] get t addr =
  if Debug.on () then check t addr;
  let ci = addr lsr chunk_log2 and off = addr land chunk_mask in
  let b = t.narrow.(ci) in
  if b != Bytes.empty then Int32.to_int (get32 b (off lsl 2))
  else Array.unsafe_get (Chunk_table.unsafe_chunk t.wide ci) off

let[@inline] set t addr v =
  if Debug.on () then check t addr;
  let ci = addr lsr chunk_log2 and off = addr land chunk_mask in
  let b = t.narrow.(ci) in
  if b == Bytes.empty then Array.unsafe_set (Chunk_table.unsafe_chunk t.wide ci) off v
  (* [v] survives a round trip through 32 signed bits. *)
  else if (v lsl 31) asr 31 = v then set32 b (off lsl 2) (Int32.of_int v)
  else begin
    widen t ci;
    Array.unsafe_set (Chunk_table.unsafe_chunk t.wide ci) off v
  end
