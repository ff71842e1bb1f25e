open Mt_core

module Make (S : Mt_stm.Stm_intf.S) = struct
  (* Node layout: [0] key, [1] value, [2] left, [3] right. *)
  let key_off = 0
  let val_off = 1
  let left_off = 2
  let right_off = 3
  let node_words = 4

  (* The map handle is a one-word cell holding the root pointer. *)
  type t = { root_cell : Ctx.addr }

  let null = Mt_sim.Memory.null

  let create ctx = { root_cell = Ctx.alloc ~label:"txmap-root" ctx ~words:1 }

  let alloc_node tx k v =
    let n = Ctx.alloc ~label:"txmap-node" (S.ctx tx) ~words:node_words in
    S.write tx (n + key_off) k;
    S.write tx (n + val_off) v;
    S.write tx (n + left_off) null;
    S.write tx (n + right_off) null;
    n

  (* Returns the address of the link (cell or child slot) that points (or
     would point) to the node with key [k], plus that node (or null). *)
  let rec locate_link tx link k =
    let node = S.read tx link in
    if node = null then (link, null)
    else begin
      let nk = S.read tx (node + key_off) in
      if k = nk then (link, node)
      else if k < nk then locate_link tx (node + left_off) k
      else locate_link tx (node + right_off) k
    end

  let find tx t k =
    let _, node = locate_link tx t.root_cell k in
    if node = null then None else Some (S.read tx (node + val_off))

  let insert tx t k v =
    let link, node = locate_link tx t.root_cell k in
    if node <> null then false
    else begin
      S.write tx link (alloc_node tx k v);
      true
    end

  let update tx t k v =
    let _, node = locate_link tx t.root_cell k in
    if node = null then false
    else begin
      S.write tx (node + val_off) v;
      true
    end

  let remove tx t k =
    let link, node = locate_link tx t.root_cell k in
    if node = null then None
    else begin
      let v = S.read tx (node + val_off) in
      let l = S.read tx (node + left_off) in
      let r = S.read tx (node + right_off) in
      (if l = null then S.write tx link r
       else if r = null then S.write tx link l
       else begin
         (* Two children: splice in the successor (leftmost of the right
            subtree) by copying its key/value here and unlinking it. *)
         let rec leftmost link node =
           let l = S.read tx (node + left_off) in
           if l = null then (link, node) else leftmost (node + left_off) l
         in
         let slink, succ = leftmost (node + right_off) r in
         S.write tx (node + key_off) (S.read tx (succ + key_off));
         S.write tx (node + val_off) (S.read tx (succ + val_off));
         S.write tx slink (S.read tx (succ + right_off))
       end);
      Some v
    end

  let fold tx t ~init ~f =
    let rec go node acc =
      if node = null then acc
      else begin
        let acc = go (S.read tx (node + left_off)) acc in
        let acc = f acc (S.read tx (node + key_off)) (S.read tx (node + val_off)) in
        go (S.read tx (node + right_off)) acc
      end
    in
    go (S.read tx t.root_cell) init

  let to_alist_unsafe machine t =
    let peek = Mt_sim.Machine.peek machine in
    let rec go node acc =
      if node = null then acc
      else begin
        let acc = go (peek (node + right_off)) acc in
        let acc = (peek (node + key_off), peek (node + val_off)) :: acc in
        go (peek (node + left_off)) acc
      end
    in
    go (peek t.root_cell) []
end
