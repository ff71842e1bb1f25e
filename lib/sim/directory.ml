type sharing = Uncached | Shared of int list | Excl of int

(* One packed word per line (DESIGN §12):

     bits  0..31   sharer bits for cores 0..31
     bits 32..38   owner id + 1 when the line is held E/M, else 0

   Sharer bits for cores 32..63 live in a second plane, [hi], whose chunk
   table stays empty until such a core holds a line, so a machine of up
   to 32 cores never allocates or reads it. Invariant: a non-zero owner
   field implies the sharer bits (in [lo] or [hi]) are exactly the
   owner's. [Config.default] caps num_cores at 64.

   Each plane is a table of fixed chunks, one simulated-memory chunk's
   worth of lines each. A chunk is allocated by the first write of a
   non-zero word into it and never moves; an absent chunk is the shared
   empty array and reads as 0 (Uncached). Only the table can grow. *)
type plane = { mutable chunks : int array array }

type t = {
  shift : int;  (* log2 of the lines per chunk *)
  lo : plane;
  hi : plane;
}

let owner_shift = 32
let sharer_bits = (1 lsl owner_shift) - 1

let create ?(line_words_log2 = 3) () =
  {
    shift = max 0 (Memory.chunk_log2 - line_words_log2);
    lo = { chunks = [||] };
    hi = { chunks = [||] };
  }

let lines_per_chunk t = 1 lsl t.shift
let wide t = Array.length t.hi.chunks > 0

(* The word of [line] in [p]; 0 past the table or in an absent chunk
   (whose length is 0, so one comparison covers both). *)
let[@inline] get t p line =
  let ci = line lsr t.shift in
  let chunks = p.chunks in
  if ci < Array.length chunks then begin
    let ch = Array.unsafe_get chunks ci in
    let off = line land ((1 lsl t.shift) - 1) in
    if off < Array.length ch then Array.unsafe_get ch off else 0
  end
  else 0

let[@inline never] fresh_chunk t p ci =
  let n = Array.length p.chunks in
  if ci >= n then begin
    let chunks = Array.make (max (ci + 1) (2 * n)) [||] in
    Array.blit p.chunks 0 chunks 0 n;
    p.chunks <- chunks
  end;
  let ch = Array.make (1 lsl t.shift) 0 in
  p.chunks.(ci) <- ch;
  ch

(* Store [w] as [line]'s word in [p]. Only a non-zero word allocates: a
   zero into an absent chunk is already what a read returns. *)
let[@inline] put t p line w =
  let ci = line lsr t.shift in
  let off = line land ((1 lsl t.shift) - 1) in
  let chunks = p.chunks in
  let ch = if ci < Array.length chunks then Array.unsafe_get chunks ci else [||] in
  if off < Array.length ch then Array.unsafe_set ch off w
  else if w <> 0 then Array.unsafe_set (fresh_chunk t p ci) off w

(* Index of the lowest set bit of a non-zero mask below 2^32. *)
let[@inline] lowest_core m =
  let b = m land -m in
  let i = ref 0 and b = ref b in
  if !b land 0xFFFF = 0 then begin i := 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin i := !i + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin i := !i + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin i := !i + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then incr i;
  !i

let[@inline] popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* OCaml ints are 63-bit: the product's bytes above bit 31 survive the
     shift (no uint32 truncation), so extract the one byte that holds the
     total. *)
  (x * 0x01010101) lsr 24 land 0xFF

(* Ascending-core iteration over a mask, so [iter_others]/[others] visit
   cores in sorted order. *)
let[@inline] iter_bits base m f =
  let m = ref m in
  while !m <> 0 do
    f (base + lowest_core !m);
    m := !m land (!m - 1)
  done

let[@inline] bit core = if core < 32 then 1 lsl core else 0
let[@inline] hi_bit core = if core < 32 then 0 else 1 lsl (core - 32)

(* Hot accessors: each reads [line]'s packed word once ----------------- *)

let is_uncached t line = get t t.lo line = 0 && get t t.hi line = 0

(* Owner core id if the line is held E/M, else -1. *)
let excl_owner t line = (get t t.lo line lsr owner_shift) - 1

let set_uncached t line =
  put t t.lo line 0;
  put t t.hi line 0

let set_excl t line core =
  put t t.lo line (((core + 1) lsl owner_shift) lor bit core);
  put t t.hi line (hi_bit core)

let set_shared_pair t line a b =
  put t t.lo line (bit a lor bit b);
  put t t.hi line (hi_bit a lor hi_bit b)

let add_sharer t line core =
  let w = get t t.lo line in
  if w lsr owner_shift = 0 then begin
    if core < 32 then put t t.lo line (w lor bit core)
    else put t t.hi line (get t t.hi line lor hi_bit core)
  end
  else if (w lsr owner_shift) - 1 <> core then
    invalid_arg "Directory.add_sharer: line is exclusively owned"

let drop t line core =
  let w = get t t.lo line in
  let owner = w lsr owner_shift in
  if owner = 0 then begin
    if core < 32 then put t t.lo line (w land lnot (bit core))
    else put t t.hi line (get t t.hi line land lnot (hi_bit core))
  end
  else if owner - 1 = core then set_uncached t line

(* The holders other than [core] among cores 0..31 and 32..63, as
   bitmasks. Without the second plane the latter is 0 and reads nothing. *)
let others_lo t line core = get t t.lo line land sharer_bits land lnot (bit core)
let others_hi t line core = get t t.hi line land lnot (hi_bit core)

let others_count t line core =
  popcount32 (others_lo t line core) + popcount32 (others_hi t line core)

let iter_others t line core f =
  let lo = others_lo t line core and hi = others_hi t line core in
  iter_bits 0 lo f;
  iter_bits 32 hi f

(* Variant-based compatibility API (tests, diagnostics) ----------------- *)

(* Ascending core ids of the sharer masks [lo] (cores 0..31) and [hi]
   (cores 32..63). *)
let core_list lo hi =
  let acc = ref [] in
  iter_bits 0 lo (fun c -> acc := c :: !acc);
  iter_bits 32 hi (fun c -> acc := c :: !acc);
  List.rev !acc

let sharing t line =
  let w = get t t.lo line in
  if w lsr owner_shift > 0 then Excl ((w lsr owner_shift) - 1)
  else begin
    let h = get t t.hi line in
    if w = 0 && h = 0 then Uncached else Shared (core_list w h)
  end

let set t line s =
  match s with
  | Uncached | Shared [] -> set_uncached t line
  | Shared cores ->
      put t t.lo line (List.fold_left (fun m c -> m lor bit c) 0 cores);
      put t t.hi line (List.fold_left (fun m c -> m lor hi_bit c) 0 cores)
  | Excl owner -> set_excl t line owner

let others t line core = core_list (others_lo t line core) (others_hi t line core)

let iter_lines t f =
  let allocated p ci = ci < Array.length p.chunks && Array.length p.chunks.(ci) > 0 in
  for ci = 0 to max (Array.length t.lo.chunks) (Array.length t.hi.chunks) - 1 do
    if allocated t.lo ci || allocated t.hi ci then
      for line = ci lsl t.shift to ((ci + 1) lsl t.shift) - 1 do
        if not (is_uncached t line) then f line
      done
  done
