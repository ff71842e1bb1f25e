open Mt_core

let null = Mt_sim.Memory.null

module type S = sig
  include Mt_list.Set_intf.SET

  val range : Ctx.t -> t -> lo:int -> hi:int -> int list option
  val check : Mt_sim.Machine.t -> t -> Checker.report
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

  (* Uniform node layout (one allocation size avoids tagging a neighbour's
     line): word 0 = meta, words 1..b = keys, words b+1..2b+1 = child ptrs. *)
  let keys_off = 1
  let ptrs_off = 1 + b
  let node_words = (2 * b) + 2

  type t = { sentinel : Ctx.addr }

  let name = Printf.sprintf "hoh-abtree(%d,%d)" a b

  let meta_of (d : Node_desc.t) =
    Node_desc.pack_meta ~leaf:d.leaf ~weight:d.weight ~count:(Array.length d.keys)

  let write_desc ctx (d : Node_desc.t) =
    let n = Ctx.alloc ~label:"abtree-hoh-node" ctx ~words:node_words in
    Ctx.write ctx n (meta_of d);
    Array.iteri (fun i k -> Ctx.write ctx (n + keys_off + i) k) d.keys;
    Array.iteri (fun i p -> Ctx.write ctx (n + ptrs_off + i) p) d.ptrs;
    n

  (* Tagged load of one word: the line becomes tagged exactly when the
     demand fetch completes — the paper's transition-to-tagged behaviour.
     AddTag(node, sizeof(node)) is realised lazily: each word the algorithm
     actually reads from a window node is read with a tagged load, so the
     tag set covers precisely the lines this thread depends on (and a
     deleter's IAS, whose tag set covers every data-bearing line of the
     nodes it read, is guaranteed to overlap it). *)
  let tread ctx addr = Ctx.add_tag_read ctx addr ~words:1

  (* The rest of [node] once its meta word [meta] is read, each word
     with [word]. *)
  let desc_of_meta word ctx node meta : Node_desc.t =
    let count = Node_desc.meta_count meta in
    let leaf = Node_desc.meta_leaf meta in
    let keys = Array.make count 0 in
    for i = 0 to count - 1 do
      keys.(i) <- word ctx (node + keys_off + i)
    done;
    let nptrs = if leaf then 0 else count + 1 in
    let ptrs = Array.make nptrs 0 in
    for i = 0 to nptrs - 1 do
      ptrs.(i) <- word ctx (node + ptrs_off + i)
    done;
    { weight = Node_desc.meta_weight meta; leaf; keys; ptrs }

  (* Reads of a window (tagged) node go through tagged loads; plain
     searches use untagged reads. *)
  let read_desc_gen word ctx node = desc_of_meta word ctx node (word ctx node)

  let read_desc ctx node = read_desc_gen tread ctx node

  (* A timing-free read of a node, for the checker on a quiescent machine. *)
  let peek_desc machine node = read_desc_gen Mt_sim.Machine.peek machine node

  let untag ctx node = Ctx.remove_tag ctx node ~words:node_words

  (* Tag [node] (a tagged load of its meta word) and validate the tag set. *)
  let tag_valid ctx node =
    let (_ : int) = tread ctx node in
    Ctx.validate ctx

  let create ctx =
    let leaf = write_desc ctx { weight = 1; leaf = true; keys = [||]; ptrs = [||] } in
    let sentinel =
      write_desc ctx { weight = 1; leaf = false; keys = [||]; ptrs = [| leaf |] }
    in
    { sentinel }

  (* Pick the child of [node] covering [k], reading keys with early exit;
     [word] selects tagged or plain loads. *)
  let select_child_gen word ctx node meta k =
    let count = Node_desc.meta_count meta in
    let rec scan i =
      if i >= count then i
      else if k < word ctx (node + keys_off + i) then i
      else scan (i + 1)
    in
    let ix = scan 0 in
    (ix, word ctx (node + ptrs_off + ix))

  let select_child ctx node meta k = select_child_gen tread ctx node meta k

  exception Restart = Ctx.Restart

  (* Hand-over-hand tagged descent toward [k], stopping at a leaf or, when
     [rebalancing], at the first node that {!Node_desc.violates} balance.
     Returns [(gp, ixp, p, ixc, curr, curr_meta)]: [ixp] is [p]'s slot in
     [gp], [ixc] is [curr]'s slot in [p]; [null]/[-1] when absent. The
     returned window nodes remain tagged; the caller must clear the tag
     set. Restarts go through {!Ctx.with_restarts} (clear, consult the
     contention policy, re-descend). *)
  let locate ctx t k ~rebalancing =
    Ctx.with_restarts ~site:t.sentinel ctx (fun () ->
        let curr = t.sentinel in
        let cm = tread ctx curr in
        if not (Ctx.validate ctx) then raise Restart;
        let rec go gp ixp p ixc curr cm =
          if
            (rebalancing && p <> null
            && Node_desc.violates ~a ~root_child:(p = t.sentinel) cm)
            || Node_desc.meta_leaf cm
          then (gp, ixp, p, ixc, curr, cm)
          else begin
            let ix, next = select_child ctx curr cm k in
            let nm = tread ctx next in
            if not (Ctx.validate ctx) then raise Restart;
            if gp <> null then untag ctx gp;
            go p ixc curr ix next nm
          end
        in
        go null (-1) null (-1) curr cm)

  (* ------------------------------------------------------------------ *)
  (* Updates. *)

  (* The checker-canary seam: with [validated_insert = false] an insert
     swings the parent slot with a plain (unvalidated) store instead of
     IAS — the hand-over-hand descent's tag window is never checked at
     commit time, so a concurrent replacement of the window is silently
     overwritten. [Mt_check.Buggy_abtree] instantiates this to give the
     linearizability battery a tree-shaped seeded bug; every real tree
     uses {!Make}, which pins it to [true]. *)
  let commit ctx ~insert target v =
    if insert && not P.validated_insert then begin
      Ctx.write ctx target v;
      true
    end
    else Ctx.ias ctx target v

  (* AbsorbChild or PropagateTag: [pd] and its flagged internal child [cd]
     (slot [ix]) become one node, or two under a flagged parent, at
     [target]. *)
  let absorb_child ctx target pd ix (cd : Node_desc.t) =
    (not cd.leaf)
    && Ctx.ias ctx target
         (Node_desc.write_fitted ~b write_desc ctx
            (Node_desc.absorb ~parent:pd ~ix ~child:cd))

  (* INSERT and DELETE: locate the leaf, write its replacement (split
     under a flagged parent when it overflows, Figure 3(b)) and commit it
     with one IAS on the parent's slot; a lost race waits on the
     contention policy (keyed by the contended slot) and retries. *)
  let rec update ctx t k ~insert attempt =
    let gp, _ixp, p, ixc, u, _um = locate ctx t k ~rebalancing:false in
    let ud = read_desc ctx u in
    if Node_desc.leaf_contains ud k = insert then begin
      (* Already present (insert) or absent (delete). *)
      Ctx.clear_tag_set ctx;
      false
    end
    else begin
      (* Only p's slot is written and only u is removed: drop gp's tag to
         avoid collateral invalidation. *)
      if gp <> null then untag ctx gp;
      let target = p + ptrs_off + ixc in
      let d =
        if insert then Node_desc.leaf_insert ud k else Node_desc.leaf_remove ud k
      in
      let ok = commit ctx ~insert target (Node_desc.write_fitted ~b write_desc ctx d) in
      Ctx.clear_tag_set ctx;
      if ok then begin
        if
          if insert then Node_desc.size d > b
          else Node_desc.size d < a && p <> t.sentinel
        then rebalance ctx t k;
        true
      end
      else begin
        Ctx.cm_wait ~site:target ctx ~attempt;
        update ctx t k ~insert (attempt + 1)
      end
    end

  (* One rebalancing step at the window (gp, p, u). Returns true on a
     successful IAS; false means "inconsistency or conflict — re-descend".
     The tag set still holds {gp?, p, u} (+ possibly a sibling we add). *)
  and apply_step ctx t gp ixp p ixc u um =
    if p = t.sentinel then begin
      let ud = read_desc ctx u in
      let slot = p + ptrs_off + ixc in
      if Node_desc.meta_weight um = 0 then
        (* RootUntag: replace the flagged root child by a weight-1 copy. *)
        Ctx.ias ctx slot (write_desc ctx (Node_desc.set_weight ud 1))
      else
        (* RootAbsorb: an internal root child with a single child is
           replaced by a weight-1 copy of that child. *)
        (not ud.leaf) && Array.length ud.ptrs = 1
        && tag_valid ctx ud.ptrs.(0)
        && Ctx.ias ctx slot
             (write_desc ctx (Node_desc.set_weight (read_desc ctx ud.ptrs.(0)) 1))
    end
    else begin
      (* gp exists because p is not the sentinel. *)
      let pd = read_desc ctx p in
      let target = gp + ptrs_off + ixp in
      ixc < Array.length pd.ptrs && pd.ptrs.(ixc) = u && (not pd.leaf)
      &&
      if Node_desc.meta_weight um = 0 then
        (* AbsorbChild / PropagateTag on the flagged u. *)
        absorb_child ctx target pd ixc (read_desc ctx u)
      else begin
        (* Degree violation at u: operate on u and an adjacent sibling. *)
        let six = if ixc > 0 then ixc - 1 else ixc + 1 in
        six < Array.length pd.ptrs
        && tag_valid ctx pd.ptrs.(six)
        &&
        let sd = read_desc ctx pd.ptrs.(six) in
        if sd.weight = 0 then
          (* The sibling carries a flag violation: fix it first. *)
          absorb_child ctx target pd six sd
        else begin
          let ud = read_desc ctx u in
          let li, l, r = if six < ixc then (six, sd, ud) else (ixc, ud, sd) in
          l.leaf = r.leaf && li < Array.length pd.keys
          && Ctx.ias ctx target (Node_desc.rebalance_pair ~b write_desc ctx pd li l r)
        end
      end
    end

  (* Rebalance (Algorithm 5): repeatedly fix the first violation on the
     search path to k until the whole path is violation-free. Whether a
     step succeeds or aborts, the path is re-examined. *)
  and rebalance ctx t k =
    let gp, ixp, p, ixc, u, um = locate ctx t k ~rebalancing:true in
    if p <> null && Node_desc.violates ~a ~root_child:(p = t.sentinel) um then begin
      let (_ : bool) = apply_step ctx t gp ixp p ixc u um in
      Ctx.clear_tag_set ctx;
      rebalance ctx t k
    end
    else Ctx.clear_tag_set ctx

  let insert ctx t k = update ctx t k ~insert:true 0
  let delete ctx t k = update ctx t k ~insert:false 0

  (* ------------------------------------------------------------------ *)
  (* Searches: plain untagged descent. Correct because nodes are only ever
     replaced (removed nodes are frozen), so a traversal wandering through
     a just-replaced subtree follows pointers valid at an overlapping
     time — the same argument as for sequential searches in the LLX/SCX
     tree. *)
  let contains ctx t k =
    let rec down node =
      let meta = Ctx.read ctx node in
      if Node_desc.meta_leaf meta then begin
        let count = Node_desc.meta_count meta in
        let rec scan i =
          if i >= count then false
          else begin
            let key = Ctx.read ctx (node + keys_off + i) in
            if key = k then true else if key > k then false else scan (i + 1)
          end
        in
        scan 0
      end
      else begin
        let _, next = select_child_gen Ctx.read ctx node meta k in
        down next
      end
    in
    down t.sentinel

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
        let meta = load ctx node ~words:1 in
        (* The node's other lines, up to its last key (a leaf) or last
           child pointer (an internal node), in one more load. *)
        let count = Node_desc.meta_count meta in
        let last_word =
          if Node_desc.meta_leaf meta then count else ptrs_off + count
        in
        if last_word >= line_words then
          ignore
            (load ctx (node + line_words) ~words:(last_word - line_words + 1));
        let d = desc_of_meta Ctx.read ctx node meta in
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
