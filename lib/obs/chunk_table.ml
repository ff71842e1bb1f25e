(* An absent chunk is the shared empty array: its length 0 makes the one
   offset comparison of an access cover both "past the table" and
   "absent". *)
type t = { shift : int; mutable chunks : int array array }

let create ~chunk_log2 = { shift = chunk_log2; chunks = [||] }

let chunk_size t = 1 lsl t.shift

(* Chunk [ci >= 0], or the empty array when it is absent. *)
let[@inline] slot t ci =
  let chunks = t.chunks in
  if ci < Array.length chunks then Array.unsafe_get chunks ci else [||]

let[@inline] offset t i = i land ((1 lsl t.shift) - 1)

(* A negative index maps to a chunk index past [max_int lsr shift]. *)
let[@inline never] fresh t ci =
  if ci < 0 || ci > max_int lsr t.shift then invalid_arg "Chunk_table: index out of range";
  let n = Array.length t.chunks in
  if ci >= n then begin
    let chunks = Array.make (max (ci + 1) (2 * n)) [||] in
    Array.blit t.chunks 0 chunks 0 n;
    t.chunks <- chunks
  end;
  let ch = Array.make (1 lsl t.shift) 0 in
  t.chunks.(ci) <- ch;
  ch

let[@inline] get t i =
  let ch = slot t (i lsr t.shift) and off = offset t i in
  if off < Array.length ch then Array.unsafe_get ch off else 0

let[@inline] set t i v =
  let ci = i lsr t.shift in
  let ch = slot t ci and off = offset t i in
  if off < Array.length ch then Array.unsafe_set ch off v
  else if v <> 0 then Array.unsafe_set (fresh t ci) off v

let[@inline] add t i d =
  let ci = i lsr t.shift in
  let ch = slot t ci and off = offset t i in
  if off < Array.length ch then Array.unsafe_set ch off (Array.unsafe_get ch off + d)
  else if d <> 0 then Array.unsafe_set (fresh t ci) off d

let chunk t ci =
  let ch = if ci >= 0 then slot t ci else [||] in
  if Array.length ch > 0 then ch else fresh t ci

let chunks t =
  Array.fold_left (fun n ch -> if Array.length ch > 0 then n + 1 else n) 0 t.chunks

let iter t f =
  Array.iteri
    (fun ci ch ->
      Array.iteri (fun off v -> if v <> 0 then f ((ci lsl t.shift) lor off) v) ch)
    t.chunks
