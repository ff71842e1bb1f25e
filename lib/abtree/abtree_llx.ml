open Mt_core
module Llx_scx = Mt_llxscx.Llx_scx

let null = Mt_sim.Memory.null

(* Two header reads per node, as the original reads a node's type and
   size fields: the field count, whose value the meta word's fixed place
   no longer needs, then the node's first word (the meta word beside
   child 0 or key 0). *)
let node_info ctx r =
  let (_ : int) = Llx_scx.nfields ctx r in
  Ctx.read ctx (Llx_scx.payload_addr r)

(* LLX [r], snapshotting only the live prefix of its pointer slots (none
   for a leaf) — the mutable content the operation actually depends on.
   [None] triggers a retry of the whole operation. *)
let llx_node ctx r =
  let meta = Node_desc.meta (node_info ctx r) in
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
    when ix < Array.length s.fields && Node_desc.child s.fields.(ix) = c ->
      snap
  | _ -> None

(* SCX swinging child [ix] of the node snapshotted as [s] to [c]: the
   whole field word, its low half (meta or key) unchanged. *)
let scx_child ctx ~v ~r (s : Llx_scx.snapshot) ix c =
  let old_val = s.fields.(ix) in
  Llx_scx.scx ctx ~v ~r ~fld:(Llx_scx.field_addr s.record ix) ~old_val
    ~new_val:(Node_desc.with_child old_val c)

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

  (* Node = LLX data-record whose payload follows {!Node_desc}'s
     half-width layout. An internal node's b words are its b mutable
     fields, field i at {!Node_desc.ptr_word} i (checked below): child
     pointer i beside the meta word or key i-1. A leaf has no fields
     (leaves stay compact, as in Brown's C++), only the words of b keys:
     3 + 5 words, one line, at b = 8. *)
  let leaf_words = Node_desc.words ~leaf:true ~count:b

  let () =
    for i = 0 to b - 1 do
      if Llx_scx.field_addr 0 i <> Llx_scx.payload_addr 0 + Node_desc.ptr_word i then
        invalid_arg "Abtree_llx: record fields off Node_desc's pointer words"
    done

  let write_desc ctx (d : Node_desc.t) =
    if Node_desc.size d > b then
      invalid_arg
        (Format.asprintf "Abtree_llx.write_desc: %a has more than %d children or keys"
           Node_desc.pp d b);
    let r =
      if d.leaf then Llx_scx.alloc_record ctx ~mutable_fields:0 ~extra_words:leaf_words
      else Llx_scx.alloc_record ctx ~mutable_fields:b ~extra_words:0
    in
    Node_desc.store Ctx.write ctx (Llx_scx.payload_addr r) d;
    r

  (* Description of [r] from its LLX snapshot. An internal node's
     snapshot holds every word the node uses, keys in their immutable low
     halves; a leaf has no fields, and its words are read. *)
  let desc_of_snapshot ctx r (snap : Llx_scx.snapshot) =
    if Array.length snap.fields > 0 then
      Node_desc.load Array.get snap.fields 0 snap.fields.(0)
    else
      let payload = Llx_scx.payload_addr r in
      Node_desc.load Ctx.read ctx payload (Ctx.read ctx payload)

  let of_root ctx root =
    { sentinel = write_desc ctx { weight = 1; leaf = false; keys = [||]; ptrs = [| root |] } }

  let create ctx =
    of_root ctx (write_desc ctx { weight = 1; leaf = true; keys = [||]; ptrs = [||] })

  (* One plain {!Node_desc.step} through internal node [r], whose first
     word reads [w0]. *)
  let step ctx r w0 k = Node_desc.step Ctx.read ctx (Llx_scx.payload_addr r) w0 k

  (* Plain sequential search to the leaf for [k], tracking the parent and
     the leaf's child index in it; no synchronization at all (thesis
     ch. 8: searches run exactly as in a sequential tree). Returns
     [(p, ixc, leaf, w0)], [w0] the leaf's first word as {!node_info}
     read it. *)
  let search_full ctx t k =
    let rec go p ixc curr =
      let w0 = node_info ctx curr in
      if Node_desc.meta_leaf (Node_desc.meta w0) then (p, ixc, curr, w0)
      else
        let s = step ctx curr w0 k in
        go curr (Node_desc.slot s) (Node_desc.child s)
    in
    go null (-1) t.sentinel

  let contains ctx t k =
    let _, _, u, w0 = search_full ctx t k in
    Node_desc.leaf_mem Ctx.read ctx (Llx_scx.payload_addr u) w0 k

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
    let p, ixc, u, _ = search_full ctx t k in
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
                scx_child ctx ~v:[ ps; us ] ~r:[] ps ixc
                  (Node_desc.write_fitted ~b write_desc ctx d)
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
      let w0 = node_info ctx curr in
      let meta = Node_desc.meta w0 in
      if p <> null && Node_desc.violates ~a ~root_child:(p = t.sentinel) meta then
        Some (gp, ixp, p, ixc, curr)
      else if Node_desc.meta_leaf meta then None
      else
        let s = step ctx curr w0 k in
        go p ixc curr (Node_desc.slot s) (Node_desc.child s)
    in
    go null (-1) null (-1) t.sentinel

  (* One rebalancing step via SCX; false = conflict, re-descend. *)
  and apply_step ctx t gp ixp p ixc u =
    let* ps = llx_parent ctx p ixc u in
    let* us = llx_node ctx u in
    let pd = desc_of_snapshot ctx p ps in
    let ud = desc_of_snapshot ctx u us in
    if p = t.sentinel then begin
      if ud.weight = 0 then
        (* RootUntag *)
        let nn = write_desc ctx (Node_desc.set_weight ud 1) in
        scx_child ctx ~v:[ ps; us ] ~r:[ u ] ps ixc nn
      else if ud.leaf || Array.length ud.ptrs <> 1 then false
      else begin
        (* RootAbsorb *)
        let c = ud.ptrs.(0) in
        let* cs = llx_node ctx c in
        let nn = write_desc ctx (Node_desc.set_weight (desc_of_snapshot ctx c cs) 1) in
        scx_child ctx ~v:[ ps; us; cs ] ~r:[ u; c ] ps ixc nn
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
      scx_child ctx ~v:[ gs; ps; us ] ~r:[ p; u ] gs ixp nn
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
        scx_child ctx ~v:[ gs; ps; ss ] ~r:[ p; s ] gs ixp nn
      else begin
        let li, l, r = if six < ixc then (six, sd, ud) else (ixc, ud, sd) in
        l.leaf = r.leaf && li < Array.length pd.keys
        &&
        let nn = Node_desc.rebalance_pair ~b write_desc ctx pd li l r in
        scx_child ctx ~v:[ gs; ps; us; ss ] ~r:[ p; u; s ] gs ixp nn
      end
    end

  and rebalance ctx t k =
    match find_violation ctx t k with
    | None -> ()
    | Some (gp, ixp, p, ixc, u) ->
        let (_ : bool) = apply_step ctx t gp ixp p ixc u in
        rebalance ctx t k

  let insert ctx t k =
    if not (Mt_core.Half.fits k) then
      invalid_arg
        (Printf.sprintf "Abtree_llx.insert: key %d outside [0, 2^31)" k);
    update ctx t k ~insert:true
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
