open Mt_core
module Llx_scx = Mt_llxscx.Llx_scx

let null = Mt_sim.Memory.null

(* Two header reads per node, as the original reads a node's type and
   size fields: the field count, whose value the meta word's fixed place
   no longer needs, then the meta word. *)
let node_info ctx r =
  let (_ : int) = Llx_scx.nfields ctx r in
  Ctx.read ctx (Llx_scx.payload_addr r)

(* LLX [r], snapshotting only the live prefix of its pointer slots (none
   for a leaf) — the mutable content the operation actually depends on.
   [None] triggers a retry of the whole operation. *)
let llx_node ctx r =
  let meta = node_info ctx r in
  let fields =
    if Node_desc.meta_leaf meta then 0 else Node_desc.meta_count meta + 1
  in
  match Llx_scx.llx ~fields ctx r with
  | Llx_scx.Snapshot s -> Some s
  | Llx_scx.Finalized | Llx_scx.Fail -> None

(* {!llx_node} on [r], and [None] too unless its field [ix] still points
   to [c]. *)
let llx_parent ctx r ix c =
  match llx_node ctx r with
  | Some (s : Llx_scx.snapshot) as snap
    when ix < Array.length s.fields && s.fields.(ix) = c ->
      snap
  | _ -> None

let ( let* ) o f = match o with None -> false | Some x -> f x

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
     Immutable payload: meta word then b key slots. From the payload's
     first word the node follows {!Node_desc}'s layout: the record puts
     mutable field i at {!Node_desc.ptr_word} i, between the keys
     (checked below). *)
  let ptr_slots = b + 1

  let () =
    for i = 0 to b do
      if Llx_scx.field_addr 0 i <> Llx_scx.payload_addr 0 + Node_desc.ptr_word i then
        invalid_arg "Abtree_llx: record fields off Node_desc's pointer words"
    done

  let write_desc ctx (d : Node_desc.t) =
    let mutable_fields = if d.leaf then 0 else ptr_slots in
    let r = Llx_scx.alloc_record ctx ~mutable_fields ~extra_words:(1 + b) in
    Node_desc.store Ctx.write ctx (Llx_scx.payload_addr r) d;
    r

  (* Description from an LLX snapshot (child pointers) plus the immutable
     payload (meta + keys). *)
  let desc_of_snapshot ctx r (snap : Llx_scx.snapshot) : Node_desc.t =
    let meta = node_info ctx r in
    let payload = Llx_scx.payload_addr r in
    let count = Node_desc.meta_count meta in
    let leaf = Node_desc.meta_leaf meta in
    let keys = Array.make count 0 in
    for i = 0 to count - 1 do
      keys.(i) <- Ctx.read ctx (payload + Node_desc.key_word ~leaf i)
    done;
    let ptrs = if leaf then [||] else Array.sub snap.fields 0 (count + 1) in
    { weight = Node_desc.meta_weight meta; leaf; keys; ptrs }

  let of_root ctx root =
    { sentinel = write_desc ctx { weight = 1; leaf = false; keys = [||]; ptrs = [| root |] } }

  let create ctx =
    of_root ctx (write_desc ctx { weight = 1; leaf = true; keys = [||]; ptrs = [||] })

  let child_slot ctx r meta k =
    Node_desc.route Ctx.read ctx (Llx_scx.payload_addr r) (Node_desc.meta_count meta) k

  (* Plain sequential search to the leaf for [k], tracking grandparent and
     parent with child indices; no synchronization at all (thesis ch. 8:
     searches run exactly as in a sequential tree). *)
  let search_full ctx t k =
    let rec go gp ixp p ixc curr =
      let meta = node_info ctx curr in
      if Node_desc.meta_leaf meta then (gp, ixp, p, ixc, curr)
      else begin
        let ix = child_slot ctx curr meta k in
        go p ixc curr ix (Ctx.read ctx (Llx_scx.field_addr curr ix))
      end
    in
    go null (-1) null (-1) t.sentinel

  let contains ctx t k =
    let _, _, _, _, u = search_full ctx t k in
    let meta = node_info ctx u in
    Node_desc.leaf_mem Ctx.read ctx (Llx_scx.payload_addr u)
      (Node_desc.meta_count meta) k

  (* ------------------------------------------------------------------ *)

  (* INSERT and DELETE: LLX the leaf and its parent, write the leaf's
     replacement (split under a flagged parent when it overflows) and swing
     the parent's field with one SCX. The baseline is measured as
     published: a failed attempt retries at once, without consulting the
     contention policy. *)
  let rec update ctx t k ~insert =
    match update_attempt ctx t k ~insert with
    | Some result -> result
    | None -> update ctx t k ~insert

  and update_attempt ctx t k ~insert =
    let _gp, _ixp, p, ixc, u = search_full ctx t k in
    match llx_parent ctx p ixc u with
    | None -> None
    | Some ps -> (
        match llx_node ctx u with
        | None -> None
        | Some us ->
            let ud = desc_of_snapshot ctx u us in
            if not ud.leaf then None
            else if Node_desc.leaf_contains ud k = insert then Some false
            else begin
              let d =
                if insert then Node_desc.leaf_insert ud k else Node_desc.leaf_remove ud k
              in
              if
                Llx_scx.scx ctx ~v:[ ps; us ] ~r:[] ~fld:(Llx_scx.field_addr p ixc)
                  ~old_val:u ~new_val:(Node_desc.write_fitted ~b write_desc ctx d)
              then begin
                if
                  if insert then Node_desc.size d > b
                  else Node_desc.size d < a && p <> t.sentinel
                then rebalance ctx t k;
                Some true
              end
              else None
            end)

  (* Find the first violation on the search path to k (plain reads). *)
  and find_violation ctx t k =
    let rec go gp ixp p ixc curr =
      let meta = node_info ctx curr in
      if p <> null && Node_desc.violates ~a ~root_child:(p = t.sentinel) meta then
        Some (gp, ixp, p, ixc, curr)
      else if Node_desc.meta_leaf meta then None
      else begin
        let ix = child_slot ctx curr meta k in
        go p ixc curr ix (Ctx.read ctx (Llx_scx.field_addr curr ix))
      end
    in
    go null (-1) null (-1) t.sentinel

  (* One rebalancing step via SCX; false = conflict, re-descend. *)
  and apply_step ctx t gp ixp p ixc u =
    let* ps = llx_parent ctx p ixc u in
    let* us = llx_node ctx u in
    let pd = desc_of_snapshot ctx p ps in
    let ud = desc_of_snapshot ctx u us in
    if p = t.sentinel then begin
      let fld_p = Llx_scx.field_addr p ixc in
      if ud.weight = 0 then
        (* RootUntag *)
        let nn = write_desc ctx (Node_desc.set_weight ud 1) in
        Llx_scx.scx ctx ~v:[ ps; us ] ~r:[ u ] ~fld:fld_p ~old_val:u ~new_val:nn
      else if ud.leaf || Array.length ud.ptrs <> 1 then false
      else begin
        (* RootAbsorb *)
        let c = ud.ptrs.(0) in
        let* cs = llx_node ctx c in
        let nn = write_desc ctx (Node_desc.set_weight (desc_of_snapshot ctx c cs) 1) in
        Llx_scx.scx ctx ~v:[ ps; us; cs ] ~r:[ u; c ] ~fld:fld_p ~old_val:u
          ~new_val:nn
      end
    end
    else if ud.weight = 0 then begin
      (* AbsorbChild / PropagateTag *)
      (not (ud.leaf || pd.leaf))
      &&
      let* gs = llx_parent ctx gp ixp p in
      let nn =
        Node_desc.write_fitted ~b write_desc ctx
          (Node_desc.absorb ~parent:pd ~ix:ixc ~child:ud)
      in
      Llx_scx.scx ctx ~v:[ gs; ps; us ] ~r:[ p; u ] ~fld:(Llx_scx.field_addr gp ixp)
        ~old_val:p ~new_val:nn
    end
    else begin
      (* Degree violation: involve an adjacent sibling. *)
      let six = if ixc > 0 then ixc - 1 else ixc + 1 in
      (not pd.leaf) && six < Array.length pd.ptrs
      &&
      let s = pd.ptrs.(six) in
      let* ss = llx_node ctx s in
      let sd = desc_of_snapshot ctx s ss in
      let* gs = llx_parent ctx gp ixp p in
      if sd.weight = 0 then
        (* Fix the sibling's flag violation first. *)
        (not sd.leaf)
        &&
        let nn =
          Node_desc.write_fitted ~b write_desc ctx
            (Node_desc.absorb ~parent:pd ~ix:six ~child:sd)
        in
        Llx_scx.scx ctx ~v:[ gs; ps; ss ] ~r:[ p; s ] ~fld:(Llx_scx.field_addr gp ixp)
          ~old_val:p ~new_val:nn
      else begin
        let li, l, r = if six < ixc then (six, sd, ud) else (ixc, ud, sd) in
        l.leaf = r.leaf && li < Array.length pd.keys
        &&
        let nn = Node_desc.rebalance_pair ~b write_desc ctx pd li l r in
        Llx_scx.scx ctx ~v:[ gs; ps; us; ss ] ~r:[ p; u; s ]
          ~fld:(Llx_scx.field_addr gp ixp) ~old_val:p ~new_val:nn
      end
    end

  and rebalance ctx t k =
    match find_violation ctx t k with
    | None -> ()
    | Some (gp, ixp, p, ixc, u) ->
        let (_ : bool) = apply_step ctx t gp ixp p ixc u in
        rebalance ctx t k

  let insert ctx t k = update ctx t k ~insert:true
  let delete ctx t k = update ctx t k ~insert:false

  (* A timing-free read of a node, for the checker on a quiescent machine. *)
  let peek_desc machine r =
    let payload = Llx_scx.payload_addr r in
    Node_desc.load Mt_sim.Machine.peek machine payload
      (Mt_sim.Machine.peek machine payload)

  let check machine t =
    Checker.check ~a ~b ~reader:(peek_desc machine) ~sentinel:t.sentinel

  let to_list_unsafe machine t =
    Checker.keys ~reader:(peek_desc machine) ~sentinel:t.sentinel
end

module Paper = Make (struct
  let a = 4
  let b = 8
end)
