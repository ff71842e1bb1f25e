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
