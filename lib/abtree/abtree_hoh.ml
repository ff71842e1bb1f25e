open Mt_core

let null = Mt_sim.Memory.null

module type S = sig
  include Mt_list.Set_intf.SET

  val range : Ctx.t -> t -> lo:int -> hi:int -> int list option
  val check : Mt_sim.Machine.t -> t -> Checker.report
  val write_desc : Ctx.t -> Node_desc.t -> Ctx.addr
  val peek_desc : Mt_sim.Machine.t -> Ctx.addr -> Node_desc.t
  val of_root : Ctx.t -> Ctx.addr -> t
end

module Make_gen (P : sig
  val a : int
  val b : int
  val validated_insert : bool
end) =
struct
  let () =
    if P.a < 2 then invalid_arg "Abtree_hoh: a must be >= 2";
    if P.b < (2 * P.a) - 1 then invalid_arg "Abtree_hoh: b must be >= 2a-1"

  let a = P.a
  let b = P.b

  (* Nodes use {!Node_desc}'s half-width layout from word 0: a leaf
     [meta|k0, k1|k2, ...], an internal node [meta|p0, k0|p1, ...].
     Every node gets exactly [b] words, which a node of [b] children or
     [b] keys fits: one line at b = 8. Leaves and internal nodes share
     the size, which avoids tagging a neighbour's line. A larger
     allocation costs more than its slack: at 2 lines per node, every
     node's first line, the only one a search touches, falls on an even
     line index, and the nodes crowd half the L2's sets. *)
  let node_words = b

  type t = { sentinel : Ctx.addr }

  let name = Printf.sprintf "hoh-abtree(%d,%d)" a b

  let write_desc ctx d =
    if Node_desc.size d > b then
      invalid_arg
        (Format.asprintf "Abtree_hoh.write_desc: %a has more than %d children or keys"
           Node_desc.pp d b);
    let n = Ctx.alloc ~label:"abtree-hoh-node" ctx ~words:node_words in
    Node_desc.store Ctx.write ctx n d;
    n

  (* Tagged load of one word: the line becomes tagged exactly when the
     demand fetch completes — the paper's transition-to-tagged behaviour.
     AddTag(node, sizeof(node)) is realised lazily: each word the algorithm
     actually reads from a window node is read with a tagged load, so the
     tag set covers precisely the lines this thread depends on (and a
     deleter's IAS, whose tag set covers every data-bearing line of the
     nodes it read, is guaranteed to overlap it). *)
  let tread ctx addr = Ctx.add_tag_read ctx addr ~words:1

  (* Reads of a window (tagged) node go through tagged loads; plain
     searches use untagged reads. *)
  let read_desc_gen word ctx node = Node_desc.load word ctx node (word ctx node)

  let read_desc ctx node = read_desc_gen tread ctx node

  (* A timing-free read of a node, for the checker on a quiescent machine. *)
  let peek_desc machine node = read_desc_gen Mt_sim.Machine.peek machine node

  let untag ctx node = Ctx.remove_tag ctx node ~words:node_words

  (* The word holding [node]'s child [ix] with [c] swung in: [node] is
     tagged, and the word's low half (meta or key) never changes. *)
  let swing ctx node ix c =
    Node_desc.with_child (tread ctx (node + Node_desc.ptr_word ix)) c

  (* One IAS swings [node]'s child [ix] to [c]. *)
  let ias_child ctx node ix c =
    Ctx.ias ctx (node + Node_desc.ptr_word ix) (swing ctx node ix c)

  (* Tag [node] (a tagged load of its meta word) and validate the tag set. *)
  let tag_valid ctx node =
    let (_ : int) = tread ctx node in
    Ctx.validate ctx

  let of_root ctx root =
    { sentinel = write_desc ctx { weight = 1; leaf = false; keys = [||]; ptrs = [| root |] } }

  let create ctx =
    of_root ctx (write_desc ctx { weight = 1; leaf = true; keys = [||]; ptrs = [||] })

  exception Restart = Ctx.Restart

  (* Hand-over-hand tagged descent toward [k], stopping at a leaf or, when
     [rebalancing], at the first node that {!Node_desc.violates} balance.
     Returns [(gp, ixp, p, ixc, curr, cw)]: [ixp] is [p]'s slot in [gp],
     [ixc] is [curr]'s slot in [p]; [null]/[-1] when absent; [cw] is
     [curr]'s first word as the descent read it. Each step reads each
     word of a node at most once, with {!Node_desc.step}. The returned
     window nodes remain tagged; the caller must clear the tag set.
     Restarts go through {!Ctx.with_restarts} (clear, consult the
     contention policy, re-descend). *)
  let locate ctx t k ~rebalancing =
    Ctx.with_restarts ~site:t.sentinel ctx (fun () ->
        let curr = t.sentinel in
        let cw = tread ctx curr in
        if not (Ctx.validate ctx) then raise Restart;
        let rec go gp ixp p ixc curr cw =
          let cm = Node_desc.meta cw in
          if
            (rebalancing && p <> null
            && Node_desc.violates ~a ~root_child:(p = t.sentinel) cm)
            || Node_desc.meta_leaf cm
          then (gp, ixp, p, ixc, curr, cw)
          else begin
            let s = Node_desc.step tread ctx curr cw k in
            let next = Node_desc.child s in
            let nw = tread ctx next in
            if not (Ctx.validate ctx) then raise Restart;
            if gp <> null then untag ctx gp;
            go p ixc curr (Node_desc.slot s) next nw
          end
        in
        go null (-1) null (-1) curr cw)

  (* ------------------------------------------------------------------ *)
  (* Updates. *)

  (* The checker-canary seam: with [validated_insert = false] an insert
     swings the parent slot with a plain (unvalidated) store instead of
     IAS — the hand-over-hand descent's tag window is never checked at
     commit time, so a concurrent replacement of the window is silently
     overwritten. [Mt_check.Buggy_abtree] instantiates this to give the
     linearizability battery a tree-shaped seeded bug; every real tree
     uses {!Make}, which pins it to [true]. *)
  let commit ctx ~insert p ix c =
    if insert && not P.validated_insert then begin
      Ctx.write ctx (p + Node_desc.ptr_word ix) (swing ctx p ix c);
      true
    end
    else ias_child ctx p ix c

  (* AbsorbChild or PropagateTag: [pd] and its flagged internal child [cd]
     (slot [ix]) become one node, or two under a flagged parent, at
     [gp]'s child [ixp]. *)
  let absorb_child ctx gp ixp pd ix (cd : Node_desc.t) =
    (not cd.leaf)
    && ias_child ctx gp ixp
         (Node_desc.write_fitted ~b write_desc ctx
            (Node_desc.absorb ~parent:pd ~ix ~child:cd))

  (* INSERT and DELETE: locate the leaf, write its replacement (split
     under a flagged parent when it overflows, Figure 3(b)) and commit it
     with one IAS on the parent's slot; a lost race waits on the
     contention policy (keyed by the contended slot) and retries. *)
  let rec update ctx t k ~insert attempt =
    let gp, _ixp, p, ixc, u, uw = locate ctx t k ~rebalancing:false in
    let ud = Node_desc.load tread ctx u uw in
    if Node_desc.leaf_contains ud k = insert then begin
      (* Already present (insert) or absent (delete). *)
      Ctx.clear_tag_set ctx;
      false
    end
    else begin
      (* Only p's slot is written and only u is removed: drop gp's tag to
         avoid collateral invalidation. *)
      if gp <> null then untag ctx gp;
      let d =
        if insert then Node_desc.leaf_insert ud k else Node_desc.leaf_remove ud k
      in
      let ok = commit ctx ~insert p ixc (Node_desc.write_fitted ~b write_desc ctx d) in
      Ctx.clear_tag_set ctx;
      if ok then begin
        if
          if insert then Node_desc.size d > b
          else Node_desc.size d < a && p <> t.sentinel
        then rebalance ctx t k;
        true
      end
      else begin
        Ctx.cm_wait ~site:(p + Node_desc.ptr_word ixc) ctx ~attempt;
        update ctx t k ~insert (attempt + 1)
      end
    end

  (* One rebalancing step at the window (gp, p, u). Returns true on a
     successful IAS; false means "inconsistency or conflict — re-descend".
     The tag set still holds {gp?, p, u} (+ possibly a sibling we add). *)
  and apply_step ctx t gp ixp p ixc u um =
    if p = t.sentinel then begin
      let ud = read_desc ctx u in
      if Node_desc.meta_weight um = 0 then
        (* RootUntag: replace the flagged root child by a weight-1 copy. *)
        ias_child ctx p ixc (write_desc ctx (Node_desc.set_weight ud 1))
      else
        (* RootAbsorb: an internal root child with a single child is
           replaced by a weight-1 copy of that child. *)
        (not ud.leaf) && Array.length ud.ptrs = 1
        && tag_valid ctx ud.ptrs.(0)
        && ias_child ctx p ixc
             (write_desc ctx (Node_desc.set_weight (read_desc ctx ud.ptrs.(0)) 1))
    end
    else begin
      (* gp exists because p is not the sentinel. *)
      let pd = read_desc ctx p in
      ixc < Array.length pd.ptrs && pd.ptrs.(ixc) = u && (not pd.leaf)
      &&
      if Node_desc.meta_weight um = 0 then
        (* AbsorbChild / PropagateTag on the flagged u. *)
        absorb_child ctx gp ixp pd ixc (read_desc ctx u)
      else begin
        (* Degree violation at u: operate on u and an adjacent sibling. *)
        let six = if ixc > 0 then ixc - 1 else ixc + 1 in
        six < Array.length pd.ptrs
        && tag_valid ctx pd.ptrs.(six)
        &&
        let sd = read_desc ctx pd.ptrs.(six) in
        if sd.weight = 0 then
          (* The sibling carries a flag violation: fix it first. *)
          absorb_child ctx gp ixp pd six sd
        else begin
          let ud = read_desc ctx u in
          let li, l, r = if six < ixc then (six, sd, ud) else (ixc, ud, sd) in
          l.leaf = r.leaf && li < Array.length pd.keys
          && ias_child ctx gp ixp (Node_desc.rebalance_pair ~b write_desc ctx pd li l r)
        end
      end
    end

  (* Rebalance (Algorithm 5): repeatedly fix the first violation on the
     search path to k until the whole path is violation-free. Whether a
     step succeeds or aborts, the path is re-examined. *)
  and rebalance ctx t k =
    let gp, ixp, p, ixc, u, uw = locate ctx t k ~rebalancing:true in
    let um = Node_desc.meta uw in
    if p <> null && Node_desc.violates ~a ~root_child:(p = t.sentinel) um then begin
      let (_ : bool) = apply_step ctx t gp ixp p ixc u um in
      Ctx.clear_tag_set ctx;
      rebalance ctx t k
    end
    else Ctx.clear_tag_set ctx

  let insert ctx t k =
    if not (Mt_core.Half.fits k) then
      invalid_arg
        (Printf.sprintf "Abtree_hoh.insert: key %d outside [0, 2^31)" k);
    update ctx t k ~insert:true 0
  let delete ctx t k = update ctx t k ~insert:false 0

  (* ------------------------------------------------------------------ *)
  (* Searches: plain untagged descent. Correct because nodes are only ever
     replaced (removed nodes are frozen), so a traversal wandering through
     a just-replaced subtree follows pointers valid at an overlapping
     time — the same argument as for sequential searches in the LLX/SCX
     tree. A step allocates nothing. *)
  let rec search ctx node k =
    let w0 = Ctx.read ctx node in
    if Node_desc.meta_leaf (Node_desc.meta w0) then
      Node_desc.leaf_mem Ctx.read ctx node w0 k
    else search ctx (Node_desc.child (Node_desc.step Ctx.read ctx node w0 k)) k

  let contains ctx t k = search ctx t.sentinel k

  (* Range collect: descend into the subtrees overlapping [lo, hi]. Each
     visited node's meta word, then the rest of the lines its read
     touches, go through [load], so a tagged load tags exactly those
     lines, each once; the words in them are then read plainly. Nodes are
     immutable after creation (updates swing parent pointers to fresh
     copies), so every visited node is internally
     consistent; the pointer graph itself may be a mix of epochs, which
     is why the walk is atomic only once [range]'s validate certifies
     it. [budget] bounds the visit count so a doomed attempt racing live
     updates still terminates. *)
  let collect load ctx t ~lo ~hi ~budget =
    let line_words =
      Mt_sim.Config.line_words (Mt_sim.Machine.cfg (Ctx.machine ctx))
    in
    let fuel = ref budget in
    let acc = ref [] in
    let rec visit node =
      if !fuel > 0 then begin
        decr fuel;
        let w0 = load ctx node ~words:1 in
        let meta = Node_desc.meta w0 in
        (* The node's other lines, if its words spill past the first, in
           one more load. *)
        let words =
          Node_desc.words ~leaf:(Node_desc.meta_leaf meta)
            ~count:(Node_desc.meta_count meta)
        in
        if words > line_words then
          ignore (load ctx (node + line_words) ~words:(words - line_words));
        let d = Node_desc.load Ctx.read ctx node w0 in
        if d.leaf then
          Array.iter (fun k -> if k >= lo && k <= hi then acc := k :: !acc) d.keys
        else begin
          let first = Node_desc.child_index d lo in
          let last = Node_desc.child_index d hi in
          for i = first to min last (Array.length d.ptrs - 1) do
            visit d.ptrs.(i)
          done
        end
      end
    in
    visit t.sentinel;
    List.sort compare !acc

  (* Atomic range snapshot: {!collect} over tagged loads, certified by
     one validate ({!Ctx.certified}). Every committed state of the tree
     is a whole tree (each update is one IAS of a fresh subtree), so a
     walk that validates returns the range of the tree at the validate.
     Each visit tags its node's meta line, and a validated walk visits
     no node twice, so one visit past the live ceiling can only end in
     {!Ctx.Tag_set_full}; the budget stops a torn walk that loops. *)
  let range ctx t ~lo ~hi =
    let budget = Mt_sim.Machine.max_tags (Ctx.machine ctx) + 1 in
    Ctx.certified ~site:t.sentinel ctx (fun load ->
        collect load ctx t ~lo ~hi ~budget)

  let check machine t =
    Checker.check ~a ~b ~reader:(peek_desc machine) ~sentinel:t.sentinel

  let to_list_unsafe machine t =
    Checker.keys ~reader:(peek_desc machine) ~sentinel:t.sentinel
end

module Make (P : sig
  val a : int
  val b : int
end) =
  Make_gen (struct
    include P

    let validated_insert = true
  end)

module Paper = Make (struct
  let a = 4
  let b = 8
end)
