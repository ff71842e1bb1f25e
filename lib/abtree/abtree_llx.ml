open Mt_core
module Llx_scx = Mt_llxscx.Llx_scx

let null = Mt_sim.Memory.null

module Make (P : sig
  val a : int
  val b : int
end) =
struct
  let () =
    if P.a < 2 then invalid_arg "Abtree_llx: a must be >= 2";
    if P.b < (2 * P.a) - 1 then invalid_arg "Abtree_llx: b must be >= 2a-1"

  let a = P.a
  let b = P.b

  type t = { sentinel : Ctx.addr }

  let name = Printf.sprintf "llx-abtree(%d,%d)" a b

  (* Node = LLX data-record. Internal nodes: b+1 mutable fields (child
     pointers); leaves: none (leaves stay compact, as in Brown's C++).
     Immutable payload: meta word then b key slots. Traversals read two
     header words per node (field count, then meta), comparable to the
     type + size fields of the original implementation. *)
  let ptr_slots = b + 1

  let meta_of (d : Node_desc.t) =
    Node_desc.pack_meta ~leaf:d.leaf ~weight:d.weight ~count:(Array.length d.keys)

  let write_desc ctx (d : Node_desc.t) =
    let mutable_fields = if d.leaf then 0 else ptr_slots in
    let r = Llx_scx.alloc_record ctx ~mutable_fields ~extra_words:(1 + b) in
    let payload = Llx_scx.payload_addr r ~mutable_fields in
    Ctx.write ctx payload (meta_of d);
    Array.iteri (fun i k -> Ctx.write ctx (payload + 1 + i) k) d.keys;
    Array.iteri (fun i p -> Llx_scx.init_field ctx r i p) d.ptrs;
    r

  (* Two header reads per node: field count (leaf test), then meta. *)
  let node_info ctx r =
    let nf = Llx_scx.nfields ctx r in
    Ctx.read ctx (Llx_scx.payload_addr r ~mutable_fields:nf)

  let payload_of_meta r meta =
    Llx_scx.payload_addr r
      ~mutable_fields:(if Node_desc.meta_leaf meta then 0 else ptr_slots)

  let read_keys ctx r meta count =
    let payload = payload_of_meta r meta in
    let keys = Array.make count 0 in
    for i = 0 to count - 1 do
      keys.(i) <- Ctx.read ctx (payload + 1 + i)
    done;
    keys

  (* Description from an LLX snapshot (child pointers) plus the immutable
     payload (meta + keys). *)
  let desc_of_snapshot ctx r (snap : Llx_scx.snapshot) : Node_desc.t =
    let meta = node_info ctx r in
    let count = Node_desc.meta_count meta in
    let leaf = Node_desc.meta_leaf meta in
    let keys = read_keys ctx r meta count in
    let ptrs = if leaf then [||] else Array.sub snap.fields 0 (count + 1) in
    { weight = Node_desc.meta_weight meta; leaf; keys; ptrs }

  let create ctx =
    let leaf = write_desc ctx { weight = 1; leaf = true; keys = [||]; ptrs = [||] } in
    let sentinel =
      write_desc ctx { weight = 1; leaf = false; keys = [||]; ptrs = [| leaf |] }
    in
    { sentinel }

  let select_child ctx r meta k =
    let payload = payload_of_meta r meta in
    let count = Node_desc.meta_count meta in
    let rec scan i =
      if i >= count then i
      else if k < Ctx.read ctx (payload + 1 + i) then i
      else scan (i + 1)
    in
    let ix = scan 0 in
    (ix, Ctx.read ctx (Llx_scx.field_addr r ix))

  (* Plain sequential search to the leaf for [k], tracking grandparent and
     parent with child indices; no synchronization at all (thesis ch. 8:
     searches run exactly as in a sequential tree). *)
  let search_full ctx t k =
    let rec go gp ixp p ixc curr =
      let meta = node_info ctx curr in
      if Node_desc.meta_leaf meta then (gp, ixp, p, ixc, curr)
      else begin
        let ix, next = select_child ctx curr meta k in
        go p ixc curr ix next
      end
    in
    go null (-1) null (-1) t.sentinel

  let contains ctx t k =
    let _, _, _, _, u = search_full ctx t k in
    let meta = node_info ctx u in
    let payload = payload_of_meta u meta in
    let count = Node_desc.meta_count meta in
    let rec scan i =
      if i >= count then false
      else begin
        let key = Ctx.read ctx (payload + 1 + i) in
        if key = k then true else if key > k then false else scan (i + 1)
      end
    in
    scan 0

  (* LLX a node expecting it to be an internal node with a live snapshot;
     [None] triggers a retry of the whole operation. *)
  (* Snapshot only the live prefix of the pointer slots (none for a
     leaf) — the mutable content the operation actually depends on. *)
  let llx_node ctx r =
    let meta = node_info ctx r in
    let fields =
      if Node_desc.meta_leaf meta then 0 else Node_desc.meta_count meta + 1
    in
    match Llx_scx.llx ~fields ctx r with
    | Llx_scx.Snapshot s -> Some s
    | Llx_scx.Finalized | Llx_scx.Fail -> None

  let ( let* ) o f = match o with None -> false | Some x -> f x

  (* ------------------------------------------------------------------ *)

  let rec insert ctx t k =
    match insert_attempt ctx t k with
    | Some result -> result
    | None -> insert ctx t k

  and insert_attempt ctx t k =
    let _gp, _ixp, p, ixc, u = search_full ctx t k in
    match llx_node ctx p with
    | None -> None
    | Some ps ->
        if ixc >= Array.length ps.fields || ps.fields.(ixc) <> u then None
        else begin
          match llx_node ctx u with
          | None -> None
          | Some us ->
              let ud = desc_of_snapshot ctx u us in
              if not ud.leaf then None
              else if Node_desc.leaf_contains ud k then Some false
              else begin
                let grew = Node_desc.leaf_insert ud k in
                let new_node =
                  if Node_desc.size grew <= b then write_desc ctx grew
                  else begin
                    let l, r, sep = Node_desc.split grew in
                    let la = write_desc ctx l in
                    let ra = write_desc ctx r in
                    write_desc ctx
                      { weight = 0; leaf = false; keys = [| sep |]; ptrs = [| la; ra |] }
                  end
                in
                if
                  Llx_scx.scx ctx ~v:[ ps; us ] ~r:[]
                    ~fld:(Llx_scx.field_addr p ixc) ~old_val:u ~new_val:new_node
                then begin
                  if Node_desc.size grew > b then rebalance ctx t k;
                  Some true
                end
                else None
              end
        end

  and delete ctx t k =
    match delete_attempt ctx t k with
    | Some result -> result
    | None -> delete ctx t k

  and delete_attempt ctx t k =
    let _gp, _ixp, p, ixc, u = search_full ctx t k in
    match llx_node ctx p with
    | None -> None
    | Some ps ->
        if ixc >= Array.length ps.fields || ps.fields.(ixc) <> u then None
        else begin
          match llx_node ctx u with
          | None -> None
          | Some us ->
              let ud = desc_of_snapshot ctx u us in
              if not ud.leaf then None
              else if not (Node_desc.leaf_contains ud k) then Some false
              else begin
                let shrunk = Node_desc.leaf_remove ud k in
                let new_node = write_desc ctx shrunk in
                if
                  Llx_scx.scx ctx ~v:[ ps; us ] ~r:[]
                    ~fld:(Llx_scx.field_addr p ixc) ~old_val:u ~new_val:new_node
                then begin
                  if Node_desc.size shrunk < a && p <> t.sentinel then rebalance ctx t k;
                  Some true
                end
                else None
              end
        end

  (* Find the first violation on the search path to k (plain reads). *)
  and find_violation ctx t k =
    let rec go gp ixp p ixc curr =
      let meta = node_info ctx curr in
      let w = Node_desc.meta_weight meta in
      let count = Node_desc.meta_count meta in
      let leaf = Node_desc.meta_leaf meta in
      let violating =
        if p = null then false
        else if w = 0 then true
        else if p = t.sentinel then (not leaf) && count = 0
        else if leaf then count < a
        else count + 1 < a
      in
      if violating then Some (gp, ixp, p, ixc, curr)
      else if leaf then None
      else begin
        let ix, next = select_child ctx curr meta k in
        go p ixc curr ix next
      end
    in
    go null (-1) null (-1) t.sentinel

  (* One rebalancing step via SCX; false = conflict, re-descend. *)
  and apply_step ctx t gp ixp p ixc u =
    let* ps = llx_node ctx p in
    if ixc >= Array.length ps.fields || ps.fields.(ixc) <> u then false
    else begin
      let* us = llx_node ctx u in
      let pd = desc_of_snapshot ctx p ps in
      let ud = desc_of_snapshot ctx u us in
      let fld_p = Llx_scx.field_addr p ixc in
      if ud.weight = 0 then
        if p = t.sentinel then
          (* RootUntag *)
          let nn = write_desc ctx (Node_desc.set_weight ud 1) in
          Llx_scx.scx ctx ~v:[ ps; us ] ~r:[ u ] ~fld:fld_p ~old_val:u ~new_val:nn
        else begin
          if ud.leaf || pd.leaf then false
          else begin
            let* gs = llx_node ctx gp in
            if ixp >= Array.length gs.fields || gs.fields.(ixp) <> p then false
            else begin
              let comb = Node_desc.absorb ~parent:pd ~ix:ixc ~child:ud in
              let fld_gp = Llx_scx.field_addr gp ixp in
              let new_node =
                if Node_desc.size comb <= b then write_desc ctx comb
                else begin
                  let l, r, sep = Node_desc.split comb in
                  let la = write_desc ctx l in
                  let ra = write_desc ctx r in
                  write_desc ctx
                    { weight = 0; leaf = false; keys = [| sep |]; ptrs = [| la; ra |] }
                end
              in
              Llx_scx.scx ctx ~v:[ gs; ps; us ] ~r:[ p; u ] ~fld:fld_gp ~old_val:p
                ~new_val:new_node
            end
          end
        end
      else if p = t.sentinel then begin
        (* RootAbsorb *)
        if ud.leaf || Array.length ud.ptrs <> 1 then false
        else begin
          let c = ud.ptrs.(0) in
          let* cs = llx_node ctx c in
          let cd = desc_of_snapshot ctx c cs in
          let nn = write_desc ctx (Node_desc.set_weight cd 1) in
          Llx_scx.scx ctx ~v:[ ps; us; cs ] ~r:[ u; c ] ~fld:fld_p ~old_val:u
            ~new_val:nn
        end
      end
      else begin
        (* Degree violation: involve an adjacent sibling. *)
        if pd.leaf then false
        else begin
          let six = if ixc > 0 then ixc - 1 else ixc + 1 in
          if six >= Array.length pd.ptrs then false
          else begin
            let s = pd.ptrs.(six) in
            let* ss = llx_node ctx s in
            let sd = desc_of_snapshot ctx s ss in
            let* gs = llx_node ctx gp in
            if ixp >= Array.length gs.fields || gs.fields.(ixp) <> p then false
            else begin
              let fld_gp = Llx_scx.field_addr gp ixp in
              if sd.weight = 0 then begin
                (* Fix the sibling's flag violation first. *)
                if sd.leaf then false
                else begin
                  let comb = Node_desc.absorb ~parent:pd ~ix:six ~child:sd in
                  let new_node =
                    if Node_desc.size comb <= b then write_desc ctx comb
                    else begin
                      let l, r, sep = Node_desc.split comb in
                      let la = write_desc ctx l in
                      let ra = write_desc ctx r in
                      write_desc ctx
                        { weight = 0; leaf = false; keys = [| sep |]; ptrs = [| la; ra |] }
                    end
                  in
                  Llx_scx.scx ctx ~v:[ gs; ps; ss ] ~r:[ p; s ] ~fld:fld_gp
                    ~old_val:p ~new_val:new_node
                end
              end
              else begin
                let li, l, r = if six < ixc then (six, sd, ud) else (ixc, ud, sd) in
                if l.Node_desc.leaf <> r.Node_desc.leaf || li >= Array.length pd.keys
                then false
                else begin
                  let sep = pd.keys.(li) in
                  let new_parent =
                    if Node_desc.size l + Node_desc.size r <= b then begin
                      (* AbsorbSibling *)
                      let m = write_desc ctx (Node_desc.merge_pair ~sep l r) in
                      Node_desc.replace_pair_with_one pd li ~addr:m
                    end
                    else begin
                      (* Distribute *)
                      let l', r', sep' = Node_desc.distribute_pair ~sep l r in
                      let la = write_desc ctx l' in
                      let ra = write_desc ctx r' in
                      Node_desc.update_pair pd li ~left:la ~right:ra ~sep:sep'
                    end
                  in
                  let nn = write_desc ctx new_parent in
                  Llx_scx.scx ctx ~v:[ gs; ps; us; ss ] ~r:[ p; u; s ] ~fld:fld_gp
                    ~old_val:p ~new_val:nn
                end
              end
            end
          end
        end
      end
    end

  and rebalance ctx t k =
    match find_violation ctx t k with
    | None -> ()
    | Some (gp, ixp, p, ixc, u) ->
        let (_ : bool) = apply_step ctx t gp ixp p ixc u in
        rebalance ctx t k

  let check machine t =
    let peek = Mt_sim.Machine.peek machine in
    let reader addr : Checker.node =
      let nf = Llx_scx.nfields_unsafe machine addr in
      let payload = Llx_scx.payload_addr addr ~mutable_fields:nf in
      let meta = peek payload in
      let count = Node_desc.meta_count meta in
      let leaf = Node_desc.meta_leaf meta in
      {
        Checker.weight = Node_desc.meta_weight meta;
        leaf;
        keys = Array.init count (fun i -> peek (payload + 1 + i));
        children =
          (if leaf then [||]
           else Array.init (count + 1) (fun i -> Llx_scx.field_unsafe machine addr i));
      }
    in
    Checker.check ~a ~b ~reader ~sentinel:t.sentinel

  let to_list_unsafe machine t =
    let peek = Mt_sim.Machine.peek machine in
    let rec walk node acc =
      let nf = Llx_scx.nfields_unsafe machine node in
      let payload = Llx_scx.payload_addr node ~mutable_fields:nf in
      let meta = peek payload in
      let count = Node_desc.meta_count meta in
      let acc = ref acc in
      if Node_desc.meta_leaf meta then
        for i = 0 to count - 1 do
          acc := peek (payload + 1 + i) :: !acc
        done
      else
        for i = 0 to count do
          acc := walk (peek (Llx_scx.field_addr node i)) !acc
        done;
      !acc
    in
    List.rev (walk t.sentinel [])
end

module Paper = Make (struct
  let a = 4
  let b = 8
end)
