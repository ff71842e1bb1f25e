open Mt_core

let null = Mt_sim.Memory.null

(* Node layout: one 8-word cache line per node, every word holding two
   31-bit halves, [low] in bits 0-30 and [high] in bits 31-61.
   leaf     [0]     header: key count lsl 1, lor [leaf_bit];
            [1..7]  keys, ascending, [count] of them (0..14): key [j]
                    is the low half of word [1 + j/2] when [j] is even,
                    its high half when [j] is odd.
   internal [0]     header (low) and child 0 (high);
            [i]     separator [i-1] (low) and child [i] (high), for
                    [i] in [1 .. count] (count 1..7 separators).
   Child i of an internal node holds keys in [sep(i-1), sep(i)): a key
   equal to a separator lives to its right. Keys, headers and node
   addresses all stay below 2^31.

   Invariants the plain walk relies on: a child half only ever holds null
   or a node address (nodes are never freed or reused), a node's kind is
   fixed when its header is first written, and that header write is the
   node's first write, so writes made visible in first-write order
   (NOrec's in-order write-back, or the direct instance's program order)
   publish it before any pointer to the node. *)
let half_bits = 31
let half_limit = 1 lsl half_bits
let half_mask = half_limit - 1
let low w = w land half_mask
let high w = w lsr half_bits
let pack lo hi = lo lor (hi lsl half_bits)
let leaf_bit = 1
let key_base = 1
let leaf_cap = 14
let inner_cap = 7
let node_words = 8

let is_leaf h = h land leaf_bit <> 0
let count h = low h lsr 1
let leaf_header n = (n lsl 1) lor leaf_bit
let inner_header n = n lsl 1

(* Address of the word holding leaf key [j]. *)
let key_word node j = node + key_base + (j lsr 1)

(* Leaf key [j] out of the word holding it. *)
let key_of j w = if j land 1 = 0 then low w else high w

module type ACCESS = sig
  type tx

  val read : tx -> Ctx.addr -> int
  val write : tx -> Ctx.addr -> int -> unit
  val ctx : tx -> Ctx.t
end

module type TREE = sig
  type tx
  type t

  val create : Ctx.t -> t
  val contains : tx -> t -> int -> bool
  val insert : tx -> t -> int -> bool
  val delete : tx -> t -> int -> bool
  val scan_plain : Ctx.t -> t -> lo:int -> hi:int -> budget:int -> int list
  val mem_plain : Ctx.t -> t -> int -> bool
  val to_list_unsafe : Mt_sim.Machine.t -> t -> int list
  val depth_unsafe : Mt_sim.Machine.t -> t -> int
end

module Make (S : ACCESS) = struct
  type tx = S.tx

  (* The map handle is a one-word cell holding the root pointer; the
     tree always has a root node, an empty leaf to begin with. *)
  type t = { root_cell : Ctx.addr }

  let new_node ctx =
    let n = Ctx.alloc ~label:"btree-node" ctx ~words:node_words in
    if n >= half_limit then
      invalid_arg "Tx_btree: node address past the 31-bit pointer field";
    n

  let create ctx =
    let root_cell = Ctx.alloc ~label:"btree-root" ctx ~words:1 in
    let leaf = new_node ctx in
    Ctx.write ctx leaf (leaf_header 0);
    Ctx.write ctx root_cell leaf;
    { root_cell }

  let alloc_node tx header =
    let n = new_node (S.ctx tx) in
    S.write tx n header;
    n

  (* The child of internal [node] (of [n] separators) whose range holds
     [k], each word read with [read c] (the transactional read, or the
     plain walk's [Ctx.read]). [w] is word [i], whose high half is child
     [i]; separators [0 .. i-1] are <= [k]. One read per step. *)
  let rec child_for read c node n k i w =
    if i < n then
      let w' = read c (node + i + 1) in
      if low w' <= k then child_for read c node n k (i + 1) w' else high w
    else high w

  (* Position of [k] among a leaf's [n] keys, or [-1 - p] when [k] is
     absent and [p] is where it would go; [j] is even, so each step reads
     one word for two keys, with [read c] as in [child_for]. *)
  let rec leaf_search read c node n k j =
    if j >= n then -1 - n
    else
      let w = read c (key_word node j) in
      let x = low w in
      if x > k then -1 - j
      else if x = k then j
      else if j + 1 = n then -1 - n
      else
        let y = high w in
        if y > k then -1 - (j + 1)
        else if y = k then j + 1
        else leaf_search read c node n k (j + 2)

  (* The one-key descent, shared by the transactional [contains] and the
     plain [mem_plain]. Counts are clamped to their node's capacity and
     a null child ends the descent, as in the plain range walk, so a walk
     racing an update stays inside the tree; it needs no fuel, because a
     node's level never changes and each step goes one down. *)
  let rec mem read c node k =
    node <> null
    &&
    let w = read c node in
    if is_leaf w then leaf_search read c node (min (count w) leaf_cap) k 0 >= 0
    else mem read c (child_for read c node (min (count w) inner_cap) k 0 w) k

  (* [shift_in tx node pos k m w] makes room for [k] at key position
     [pos]: rewrites key word [m] (currently [w]) and every word below it
     down to the one holding [pos], each key at [pos] or above moving one
     position up. *)
  let rec shift_in tx node pos k m w =
    let j = 2 * m in
    let a = node + key_base + m in
    if j > pos then begin
      let below = S.read tx (a - 1) in
      S.write tx a (pack (high below) (low w));
      shift_in tx node pos k (m - 1) below
    end
    else if j = pos then S.write tx a (pack k (low w))
    else S.write tx a (pack (low w) k)

  (* Inserts [k] at position [pos] of leaf [node], which holds [n < 14]
     keys. The word past the last key is not read: its high half is
     beyond the new count. *)
  let leaf_put tx node n pos k =
    let m = n lsr 1 in
    shift_in tx node pos k m
      (if n land 1 = 0 then 0 else S.read tx (node + key_base + m));
    S.write tx node (leaf_header (n + 1))

  (* [move_keys tx src from dst r]: keys [from ..] of full leaf [src]
     become keys [2r ..] of [dst], one word of [dst] per step. *)
  let rec move_keys tx src from dst r =
    let j = from + (2 * r) in
    if j < leaf_cap then begin
      let w = S.read tx (key_word src j) in
      S.write tx (dst + key_base + r)
        (if j land 1 = 0 then w
         else if j + 1 < leaf_cap then
           pack (high w) (low (S.read tx (key_word src (j + 1))))
         else high w);
      move_keys tx src from dst (r + 1)
    end

  type ins = Dup | Done | Split of { sep : int; right : Ctx.addr }

  let leaf_insert tx node n k =
    let p = leaf_search S.read tx node n k 0 in
    let pos = -1 - p in
    if p >= 0 then Dup
    else if n < leaf_cap then begin
      leaf_put tx node n pos k;
      Done
    end
    else begin
      (* Overflow: of the 15 keys, the lowest 7 stay and the upper 8 move
         to a new right leaf, whose first key becomes the separator. The
         side [k] belongs to is cut one key short and [k] put into it. *)
      let right = alloc_node tx (leaf_header 8) in
      if pos < 7 then begin
        move_keys tx node 6 right 0;
        leaf_put tx node 6 pos k
      end
      else begin
        move_keys tx node 7 right 0;
        leaf_put tx right 7 (pos - 7) k;
        S.write tx node (leaf_header 7)
      end;
      Split { sep = low (S.read tx (right + key_base)); right }
    end

  (* [shift_up tx node i j] moves words [node+i .. node+j-1] one slot up,
     highest first. *)
  let rec shift_up tx node i j =
    if j > i then begin
      S.write tx (node + j) (S.read tx (node + j - 1));
      shift_up tx node i (j - 1)
    end

  (* Word [j] of a full internal node once the pair [(sep, right)] is
     inserted as word [i + 1]. *)
  let vword tx node i pair j =
    if j <= i then S.read tx (node + j)
    else if j = i + 1 then pair
    else S.read tx (node + j - 1)

  (* Child [right] goes in after child [i] of [node] (header word [w0],
     [n] separators), with [sep] between them: one (separator, child)
     word, so the words above it shift whole. *)
  let inner_insert tx node w0 n i sep right =
    let pair = pack sep right in
    if n < inner_cap then begin
      shift_up tx node (i + 1) (n + 1);
      S.write tx (node + i + 1) pair;
      S.write tx node (pack (inner_header (n + 1)) (high w0));
      Done
    end
    else begin
      (* Overflow: of the 9 words (header and 8 pairs), the left node
         keeps words 0-4 (4 separators, 5 children); word 5's separator
         moves up and its child becomes child 0 of a new right node, which
         takes words 6-8. The right node is built first: it reads slots
         the left node's rewrite overwrites. *)
      let mid = vword tx node i pair 5 in
      let r = alloc_node tx (pack (inner_header 3) (high mid)) in
      for j = 6 to 8 do
        S.write tx (r + j - 5) (vword tx node i pair j)
      done;
      if i < 4 then begin
        shift_up tx node (i + 1) 4;
        S.write tx (node + i + 1) pair
      end;
      S.write tx node (pack (inner_header 4) (high w0));
      Split { sep = low mid; right = r }
    end

  (* One descent; splits propagate bottom-up only from a full node. *)
  let rec ins tx node k =
    let w0 = S.read tx node in
    let n = count w0 in
    if is_leaf w0 then leaf_insert tx node n k else ins_from tx node w0 n k 0 w0

  (* [child_for] for an insert, which also needs the child's index. *)
  and ins_from tx node w0 n k i w =
    if i < n then
      let w' = S.read tx (node + i + 1) in
      if low w' <= k then ins_from tx node w0 n k (i + 1) w'
      else ins_child tx node w0 n k i w
    else ins_child tx node w0 n k i w

  and ins_child tx node w0 n k i w =
    match ins tx (high w) k with
    | (Dup | Done) as r -> r
    | Split { sep; right } -> inner_insert tx node w0 n i sep right

  let insert tx t k =
    if k < 0 || k >= half_limit then
      invalid_arg "Tx_btree.insert: key outside the 31-bit key field";
    let root = S.read tx t.root_cell in
    match ins tx root k with
    | Dup -> false
    | Done -> true
    | Split { sep; right } ->
        let r = alloc_node tx (pack (inner_header 1) root) in
        S.write tx (r + 1) (pack sep right);
        S.write tx t.root_cell r;
        true

  (* [shift_out tx node p n m w] closes the gap left by the key at
     position [p] of a leaf's [n]: rewrites key word [m] (currently [w],
     the word holding [p]) and those above it, each key above [p] moving
     one position down. *)
  let rec shift_out tx node p n m w =
    let j = 2 * m in
    let next = if j + 2 < n then S.read tx (node + key_base + m + 1) else 0 in
    S.write tx (node + key_base + m)
      (pack (if j >= p then high w else low w) (low next));
    if j + 3 < n then shift_out tx node p n (m + 1) next

  (* Removes the key from its leaf and merges nothing: a leaf may go
     empty, and the separators above it stay valid bounds. *)
  let rec del tx node k =
    let w = S.read tx node in
    let n = count w in
    if is_leaf w then begin
      let p = leaf_search S.read tx node n k 0 in
      if p < 0 then false
      else begin
        if p < n - 1 then
          shift_out tx node p n (p lsr 1) (S.read tx (key_word node p));
        S.write tx node (leaf_header (n - 1));
        true
      end
    end
    else del tx (child_for S.read tx node n k 0 w) k

  let contains tx t k = mem S.read tx (S.read tx t.root_cell) k
  let mem_plain ctx t k = mem Ctx.read ctx (Ctx.read ctx t.root_cell) k
  let delete tx t k = del tx (S.read tx t.root_cell) k

  (* Plain (untagged, unvalidated) range walk. Racing an update it may
     see a mix of old and new words, so every count is clamped to its
     node's capacity and a null child ends its branch; the caller's
     version check discards such a walk. Children are visited
     right to left and keys prepended, so a quiescent walk returns keys
     ascending. *)

  (* Keys [j] and below of a leaf that are >= [lo], those <= [hi]
     prepended to [acc]; one read per word. *)
  let rec collect ctx node lo hi j acc =
    if j < 0 then acc
    else
      let w = Ctx.read ctx (key_word node j) in
      if j land 1 = 0 then collect_low ctx node lo hi j w acc
      else
        let k = high w in
        if k < lo then acc
        else collect_low ctx node lo hi (j - 1) w (if k <= hi then k :: acc else acc)

  and collect_low ctx node lo hi j w acc =
    let k = low w in
    if k < lo then acc
    else collect ctx node lo hi (j - 1) (if k <= hi then k :: acc else acc)

  let rec walk ctx node lo hi fuel acc =
    if node = null || !fuel <= 0 then acc
    else begin
      decr fuel;
      let w = Ctx.read ctx node in
      if is_leaf w then collect ctx node lo hi (min (count w) leaf_cap - 1) acc
      else last_child ctx node (min (count w) inner_cap) lo hi fuel 0 w acc
    end

  (* Finds the last child whose range meets [hi], as [child_for] does,
     then walks children from there leftwards. *)
  and last_child ctx node n lo hi fuel i w acc =
    if i < n then
      let w' = Ctx.read ctx (node + i + 1) in
      if low w' <= hi then last_child ctx node n lo hi fuel (i + 1) w' acc
      else walk_children ctx node lo hi fuel i w acc
    else walk_children ctx node lo hi fuel i w acc

  (* Walks child [i] (the high half of word [w]), then, while its lower
     bound (separator [i-1], the low half) is above [lo], child [i-1]. *)
  and walk_children ctx node lo hi fuel i w acc =
    let acc = walk ctx (high w) lo hi fuel acc in
    if i > 0 && low w > lo then
      walk_children ctx node lo hi fuel (i - 1) (Ctx.read ctx (node + i - 1)) acc
    else acc

  let scan_plain ctx t ~lo ~hi ~budget =
    walk ctx (Ctx.read ctx t.root_cell) lo hi (ref budget) []

  let rec peek_keys peek node acc =
    let w = peek node in
    if is_leaf w then
      List.init (count w) (fun j -> key_of j (peek (key_word node j))) @ acc
    else begin
      let acc = ref acc in
      for i = count w downto 0 do
        acc := peek_keys peek (high (peek (node + i))) !acc
      done;
      !acc
    end

  let to_list_unsafe machine t =
    let peek = Mt_sim.Machine.peek machine in
    peek_keys peek (peek t.root_cell) []

  let depth_unsafe machine t =
    let peek = Mt_sim.Machine.peek machine in
    let rec go node d =
      let w = peek node in
      if is_leaf w then d else go (high w) (d + 1)
    in
    go (peek t.root_cell) 1
end

module Direct = Make (struct
  type tx = Ctx.t

  let read = Ctx.read
  let write = Ctx.write
  let ctx c = c
end)
