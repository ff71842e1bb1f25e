open Mt_core

let null = Mt_sim.Memory.null

(* Node layout: one 8-word cache line per node.
   [0]      header: key count lsl 1, lor [leaf_bit] on leaves.
   leaf     [1..7] keys, ascending, [count] of them (0..7).
   internal [1..3] separators, ascending, [count] of them (1..3);
            [4..7] children, [count + 1] of them.
   Child i of an internal node holds keys in [sep(i-1), sep(i)): a key
   equal to a separator lives to its right.

   Invariants the plain walk relies on: a child slot only ever holds null
   or a node address (nodes are never freed or reused), a node's kind is
   fixed when its header is first written, and that header write is the
   node's first write, so NOrec's in-order write-back publishes it before
   any pointer to the node. *)
let leaf_bit = 1
let key_base = 1
let child_base = 4
let leaf_cap = 7
let inner_cap = 3
let node_words = 8

let is_leaf h = h land leaf_bit <> 0
let count h = h lsr 1
let leaf_header n = (n lsl 1) lor leaf_bit
let inner_header n = n lsl 1

module Make (S : Mt_stm.Stm_intf.S) = struct
  (* The map handle is a one-word cell holding the root pointer; the
     tree always has a root node, an empty leaf to begin with. *)
  type t = { root_cell : Ctx.addr }

  let create ctx =
    let root_cell = Ctx.alloc ~label:"btree-root" ctx ~words:1 in
    let leaf = Ctx.alloc ~label:"btree-node" ctx ~words:node_words in
    Ctx.write ctx leaf (leaf_header 0);
    Ctx.write ctx root_cell leaf;
    { root_cell }

  let alloc_node tx header =
    let n = Ctx.alloc ~label:"btree-node" (S.ctx tx) ~words:node_words in
    S.write tx n header;
    n

  let key tx node i = S.read tx (node + key_base + i)
  let child tx node i = S.read tx (node + child_base + i)

  (* Index of the child whose range holds [k]: the number of the node's
     [n] separators that are <= [k], each read with [read c] (the
     transactional read, or the plain walk's [Ctx.read]). *)
  let rec child_index read c node n k i =
    if i < n && read c (node + key_base + i) <= k then
      child_index read c node n k (i + 1)
    else i

  (* Position of [k] among a leaf's [n] keys, or [-1 - p] when [k] is
     absent and [p] is where it would go. *)
  let rec leaf_search tx node n k i =
    if i = n then -1 - i
    else
      let x = key tx node i in
      if x < k then leaf_search tx node n k (i + 1)
      else if x = k then i
      else -1 - i

  let rec mem tx node k =
    let h = S.read tx node in
    let n = count h in
    if is_leaf h then leaf_search tx node n k 0 >= 0
    else mem tx (child tx node (child_index S.read tx node n k 0)) k

  (* [shift_up tx base i j] moves words [base+i .. base+j-1] one slot up,
     highest first. *)
  let rec shift_up tx base i j =
    if j > i then begin
      S.write tx (base + j) (S.read tx (base + j - 1));
      shift_up tx base i (j - 1)
    end

  type ins = Dup | Done | Split of { sep : int; right : Ctx.addr }

  (* Key (or separator) [j] of a full node once [k] is inserted at
     position [pos]. *)
  let vkey tx node pos k j =
    if j < pos then key tx node j else if j = pos then k else key tx node (j - 1)

  let leaf_insert tx node n k =
    let p = leaf_search tx node n k 0 in
    let pos = -1 - p in
    if p >= 0 then Dup
    else if n < leaf_cap then begin
      shift_up tx (node + key_base) pos n;
      S.write tx (node + key_base + pos) k;
      S.write tx node (leaf_header (n + 1));
      Done
    end
    else begin
      (* Overflow: the upper 4 of the 8 keys move to a new right leaf,
         whose first key becomes the separator. *)
      let right = alloc_node tx (leaf_header 4) in
      for j = 4 to 7 do
        S.write tx (right + key_base + j - 4) (vkey tx node pos k j)
      done;
      for j = 3 downto pos do
        S.write tx (node + key_base + j) (vkey tx node pos k j)
      done;
      S.write tx node (leaf_header 4);
      Split { sep = key tx right 0; right }
    end

  (* Child [j] of a full internal node once child [right] is inserted at
     position [i + 1]. *)
  let vchild tx node i right j =
    if j <= i then child tx node j
    else if j = i + 1 then right
    else child tx node (j - 1)

  let inner_insert tx node n i sep right =
    if n < inner_cap then begin
      shift_up tx (node + key_base) i n;
      S.write tx (node + key_base + i) sep;
      shift_up tx (node + child_base) (i + 1) (n + 1);
      S.write tx (node + child_base + i + 1) right;
      S.write tx node (inner_header (n + 1));
      Done
    end
    else begin
      (* Overflow: of the 4 separators and 5 children, the left node keeps
         2 and 3, the third separator moves up, and a new right node takes
         the last separator and 2 children. The right node is built first:
         it reads slots the left node's rewrite overwrites. *)
      let up = vkey tx node i sep 2 in
      let r = alloc_node tx (inner_header 1) in
      S.write tx (r + key_base) (vkey tx node i sep 3);
      S.write tx (r + child_base) (vchild tx node i right 3);
      S.write tx (r + child_base + 1) (vchild tx node i right 4);
      for j = 2 downto i + 1 do
        S.write tx (node + child_base + j) (vchild tx node i right j)
      done;
      for j = 1 downto i do
        S.write tx (node + key_base + j) (vkey tx node i sep j)
      done;
      S.write tx node (inner_header 2);
      Split { sep = up; right = r }
    end

  (* One descent; splits propagate bottom-up only from a full node. *)
  let rec ins tx node k =
    let h = S.read tx node in
    let n = count h in
    if is_leaf h then leaf_insert tx node n k
    else begin
      let i = child_index S.read tx node n k 0 in
      match ins tx (child tx node i) k with
      | (Dup | Done) as r -> r
      | Split { sep; right } -> inner_insert tx node n i sep right
    end

  let insert tx t k =
    let root = S.read tx t.root_cell in
    match ins tx root k with
    | Dup -> false
    | Done -> true
    | Split { sep; right } ->
        let r = alloc_node tx (inner_header 1) in
        S.write tx (r + key_base) sep;
        S.write tx (r + child_base) root;
        S.write tx (r + child_base + 1) right;
        S.write tx t.root_cell r;
        true

  (* [shift_down tx base i j] moves words [base+i+1 .. base+j] one slot
     down, lowest first. *)
  let rec shift_down tx base i j =
    if i < j then begin
      S.write tx (base + i) (S.read tx (base + i + 1));
      shift_down tx base (i + 1) j
    end

  (* Removes the key from its leaf and merges nothing: a leaf may go
     empty, and the separators above it stay valid bounds. *)
  let rec del tx node k =
    let h = S.read tx node in
    let n = count h in
    if is_leaf h then begin
      let i = leaf_search tx node n k 0 in
      if i < 0 then false
      else begin
        shift_down tx (node + key_base) i (n - 1);
        S.write tx node (leaf_header (n - 1));
        true
      end
    end
    else del tx (child tx node (child_index S.read tx node n k 0)) k

  let contains tx t k = mem tx (S.read tx t.root_cell) k
  let delete tx t k = del tx (S.read tx t.root_cell) k

  (* Plain (untagged, unvalidated) range walk. Under a racing NOrec
     write-back it may see a mix of old and new words, so every count is
     clamped to its node's capacity and a null child ends its branch; the
     caller's version check discards such a walk. Children are visited
     right to left and keys prepended, so a quiescent walk returns keys
     ascending. *)
  let rec collect ctx node lo hi j acc =
    if j < 0 then acc
    else
      let k = Ctx.read ctx (node + key_base + j) in
      if k < lo then acc
      else collect ctx node lo hi (j - 1) (if k <= hi then k :: acc else acc)

  let rec walk ctx node lo hi fuel acc =
    if node = null || !fuel <= 0 then acc
    else begin
      decr fuel;
      let h = Ctx.read ctx node in
      if is_leaf h then collect ctx node lo hi (min (count h) leaf_cap - 1) acc
      else begin
        let n = min (count h) inner_cap in
        let first = child_index Ctx.read ctx node n lo 0 in
        walk_children ctx node lo hi fuel first
          (child_index Ctx.read ctx node n hi first)
          acc
      end
    end

  and walk_children ctx node lo hi fuel first i acc =
    if i < first then acc
    else
      walk_children ctx node lo hi fuel first (i - 1)
        (walk ctx (Ctx.read ctx (node + child_base + i)) lo hi fuel acc)

  let scan_plain ctx t ~lo ~hi ~budget =
    walk ctx (Ctx.read ctx t.root_cell) lo hi (ref budget) []

  let rec peek_keys peek node acc =
    let h = peek node in
    if is_leaf h then
      List.init (count h) (fun i -> peek (node + key_base + i)) @ acc
    else begin
      let acc = ref acc in
      for i = count h downto 0 do
        acc := peek_keys peek (peek (node + child_base + i)) !acc
      done;
      !acc
    end

  let to_list_unsafe machine t =
    let peek = Mt_sim.Machine.peek machine in
    peek_keys peek (peek t.root_cell) []

  let depth_unsafe machine t =
    let peek = Mt_sim.Machine.peek machine in
    let rec go node d =
      if is_leaf (peek node) then d else go (peek (node + child_base)) (d + 1)
    in
    go (peek t.root_cell) 1
end
