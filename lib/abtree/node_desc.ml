type t = { weight : int; leaf : bool; keys : int array; ptrs : int array }

let size d = if d.leaf then Array.length d.keys else Array.length d.ptrs

let child_index d k =
  (* Smallest i with k < keys.(i); if none, the last child. *)
  let n = Array.length d.keys in
  let rec go i = if i >= n then n else if k < d.keys.(i) then i else go (i + 1) in
  go 0

let leaf_contains d k = Array.exists (fun k' -> k' = k) d.keys

let sorted_insert keys k =
  let n = Array.length keys in
  let pos =
    let rec go i = if i >= n || keys.(i) > k then i else go (i + 1) in
    go 0
  in
  Array.init (n + 1) (fun i ->
      if i < pos then keys.(i) else if i = pos then k else keys.(i - 1))

let leaf_insert d k =
  if not d.leaf then invalid_arg "Node_desc.leaf_insert: not a leaf";
  if leaf_contains d k then invalid_arg "Node_desc.leaf_insert: duplicate";
  { d with keys = sorted_insert d.keys k }

let leaf_remove d k =
  if not d.leaf then invalid_arg "Node_desc.leaf_remove: not a leaf";
  if not (leaf_contains d k) then invalid_arg "Node_desc.leaf_remove: absent";
  { d with keys = Array.of_list (List.filter (fun k' -> k' <> k) (Array.to_list d.keys)) }

let set_weight d w = { d with weight = w }

let concat3 a b c = Array.concat [ a; b; c ]

let absorb ~parent ~ix ~child =
  if parent.leaf || child.leaf then invalid_arg "Node_desc.absorb: leaves";
  if ix < 0 || ix >= Array.length parent.ptrs then invalid_arg "Node_desc.absorb: ix";
  (* Parent keys around position ix stay; the child's keys slide in where
     the child pointer was. *)
  let keys =
    concat3 (Array.sub parent.keys 0 ix) child.keys
      (Array.sub parent.keys ix (Array.length parent.keys - ix))
  in
  let ptrs =
    concat3 (Array.sub parent.ptrs 0 ix) child.ptrs
      (Array.sub parent.ptrs (ix + 1) (Array.length parent.ptrs - ix - 1))
  in
  { weight = parent.weight; leaf = false; keys; ptrs }

let split d =
  let n = size d in
  if n < 2 then invalid_arg "Node_desc.split: too small";
  if d.leaf then begin
    let h = (n + 1) / 2 in
    let left = { d with weight = 1; keys = Array.sub d.keys 0 h } in
    let right = { d with weight = 1; keys = Array.sub d.keys h (n - h) } in
    (left, right, right.keys.(0))
  end
  else begin
    let h = (n + 1) / 2 in
    let left =
      {
        weight = 1;
        leaf = false;
        keys = Array.sub d.keys 0 (h - 1);
        ptrs = Array.sub d.ptrs 0 h;
      }
    in
    let right =
      {
        weight = 1;
        leaf = false;
        keys = Array.sub d.keys h (Array.length d.keys - h);
        ptrs = Array.sub d.ptrs h (n - h);
      }
    in
    (left, right, d.keys.(h - 1))
  end

let merge_pair ~sep l r =
  if l.leaf <> r.leaf then invalid_arg "Node_desc.merge_pair: kind mismatch";
  if l.leaf then { weight = 1; leaf = true; keys = Array.append l.keys r.keys; ptrs = [||] }
  else
    {
      weight = 1;
      leaf = false;
      keys = concat3 l.keys [| sep |] r.keys;
      ptrs = Array.append l.ptrs r.ptrs;
    }

let distribute_pair ~sep l r =
  let merged = merge_pair ~sep l r in
  split merged

let replace_pair_with_one d ix ~addr =
  if d.leaf || ix + 1 >= Array.length d.ptrs then
    invalid_arg "Node_desc.replace_pair_with_one";
  let keys =
    Array.init
      (Array.length d.keys - 1)
      (fun i -> if i < ix then d.keys.(i) else d.keys.(i + 1))
  in
  let ptrs =
    Array.init
      (Array.length d.ptrs - 1)
      (fun i -> if i < ix then d.ptrs.(i) else if i = ix then addr else d.ptrs.(i + 1))
  in
  { d with keys; ptrs }

let update_pair d ix ~left ~right ~sep =
  if d.leaf || ix + 1 >= Array.length d.ptrs then invalid_arg "Node_desc.update_pair";
  let keys = Array.copy d.keys in
  let ptrs = Array.copy d.ptrs in
  keys.(ix) <- sep;
  ptrs.(ix) <- left;
  ptrs.(ix + 1) <- right;
  { d with keys; ptrs }

(* The replacement each step writes, planned once for both trees.
   [write ctx d] is the tree's node writer; it and [ctx] travel as
   separate arguments so that a call allocates no closure. *)

let write_fitted ~b write ctx d =
  if size d <= b then write ctx d
  else begin
    let l, r, sep = split d in
    let la = write ctx l in
    let ra = write ctx r in
    write ctx { weight = 0; leaf = false; keys = [| sep |]; ptrs = [| la; ra |] }
  end

let rebalance_pair ~b write ctx p li l r =
  let sep = p.keys.(li) in
  let p' =
    if size l + size r <= b then
      (* AbsorbSibling (Algorithm 4): one merged child replaces the pair. *)
      replace_pair_with_one p li ~addr:(write ctx (merge_pair ~sep l r))
    else begin
      (* Distribute: the pair's keys evened out over two fresh nodes. *)
      let l', r', sep' = distribute_pair ~sep l r in
      let la = write ctx l' in
      let ra = write ctx r' in
      update_pair p li ~left:la ~right:ra ~sep:sep'
    end
  in
  write ctx p'

let pp ppf d =
  Format.fprintf ppf "{%s w%d keys=[%s] %d ptrs}"
    (if d.leaf then "leaf" else "int")
    d.weight
    (String.concat ";" (Array.to_list (Array.map string_of_int d.keys)))
    (Array.length d.ptrs)

(* Meta word: bit 0 = leaf, bit 1 = weight, bits 2.. = key count. *)
let pack_meta ~leaf ~weight ~count =
  (count lsl 2) lor (weight lsl 1) lor (if leaf then 1 else 0)

let meta_leaf m = m land 1 = 1
let meta_weight m = (m lsr 1) land 1
let meta_count m = m lsr 2

module Half = Mt_core.Half

(* Memory layout: slot [s] is the low (even [s]) or high (odd [s]) half
   of word [s/2]. A leaf's slots are [meta, k0, k1, ...]; an internal
   node's [meta, p0, k0, p1, k1, ..., pn], so its word [i] holds child
   pointer [i] in the high half over meta ([i = 0]) or key [i-1]. *)
let key_slot ~leaf i = if leaf then 1 + i else 2 + (2 * i)
let ptr_slot i = 1 + (2 * i)
let slots ~leaf ~count = if leaf then 1 + count else ptr_slot count + 1
let words ~leaf ~count = (slots ~leaf ~count + 1) / 2
let ptr_word i = i
let meta w = Half.low w
let child w = Half.high w

let check_half v =
  if not (Half.fits v) then
    invalid_arg
      (Printf.sprintf "Node_desc: %d does not fit a 31-bit half-word slot" v)

let with_child w c =
  check_half c;
  Half.pack (Half.low w) c

let store write ctx base d =
  let leaf = d.leaf and count = Array.length d.keys in
  let slot = Array.make (2 * words ~leaf ~count) 0 in
  slot.(0) <- pack_meta ~leaf ~weight:d.weight ~count;
  Array.iteri (fun i k -> slot.(key_slot ~leaf i) <- k) d.keys;
  Array.iteri (fun i p -> slot.(ptr_slot i) <- p) d.ptrs;
  Array.iter check_half slot;
  for j = 0 to (Array.length slot / 2) - 1 do
    write ctx (base + j) (Half.pack slot.(2 * j) slot.((2 * j) + 1))
  done

let load word ctx base w0 =
  let m = meta w0 in
  let count = meta_count m and leaf = meta_leaf m in
  let slot = Array.make (2 * words ~leaf ~count) 0 in
  for j = 0 to (Array.length slot / 2) - 1 do
    let w = if j = 0 then w0 else word ctx (base + j) in
    slot.(2 * j) <- Half.low w;
    slot.((2 * j) + 1) <- Half.high w
  done;
  {
    weight = meta_weight m;
    leaf;
    keys = Array.init count (fun i -> slot.(key_slot ~leaf i));
    ptrs = (if leaf then [||] else Array.init (count + 1) (fun i -> slot.(ptr_slot i)));
  }

(* The scans are top-level functions of all their arguments: a local
   recursive closure would be allocated at every node visited. Key [i]
   of an internal node is the low half of word [i + 1], and child [i]
   the high half of word [i]: the scan carries the word before the one
   it reads, so the child comes out of a word already read, one read per
   key. *)
let rec step_from word ctx base count k i w =
  if i >= count then Half.pack i (Half.high w)
  else
    let w' = word ctx (base + i + 1) in
    if k < Half.low w' then Half.pack i (Half.high w)
    else step_from word ctx base count k (i + 1) w'

let step word ctx base w0 k = step_from word ctx base (meta_count (meta w0)) k 0 w0
let slot s = Half.low s

(* Leaf key [j] is the high half of word [(j + 1) / 2] when [j] is even,
   the low half of the next word when [j] is odd: [w] holds keys [j] (low
   half) and [j + 1] (high half), one read per two keys. *)
let rec leaf_mem_from word ctx base count k j =
  j < count
  &&
  let w = word ctx (base + ((j + 1) / 2)) in
  let x = Half.low w in
  x = k
  || x < k && j + 1 < count
     &&
     let y = Half.high w in
     y = k || (y < k && leaf_mem_from word ctx base count k (j + 2))

let leaf_mem word ctx base w0 k =
  let count = meta_count (meta w0) in
  count > 0
  &&
  let k0 = Half.high w0 in
  k0 = k || (k0 < k && leaf_mem_from word ctx base count k 1)

(* The balance predicate both trees rebalance by. *)
let violates ~a ~root_child m =
  meta_weight m = 0
  ||
  if root_child then (not (meta_leaf m)) && meta_count m = 0
  else if meta_leaf m then meta_count m < a
  else meta_count m + 1 < a
