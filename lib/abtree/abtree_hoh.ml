open Mt_core

let null = Mt_sim.Memory.null

module type S = sig
  include Mt_list.Set_intf.SET

  val range : Ctx.t -> t -> lo:int -> hi:int -> int list option
  val scan_plain : Ctx.t -> t -> lo:int -> hi:int -> budget:int -> int list
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

  (* The checker-canary seam: with [validated_insert = false] an insert
     swings the parent slot with a plain (unvalidated) store instead of
     IAS — the hand-over-hand descent's tag window is never checked at
     commit time, so a concurrent replacement of the window is silently
     overwritten. [Mt_check.Buggy_abtree] instantiates this to give the
     linearizability battery a tree-shaped seeded bug; every real tree
     uses {!Make}, which pins it to [true]. *)
  let insert_commit ctx target v =
    if P.validated_insert then Ctx.ias ctx target v
    else begin
      Ctx.write ctx target v;
      true
    end

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

  (* Reads of a window (tagged) node go through tagged loads; plain
     searches use untagged reads. *)
  let read_desc_gen word ctx node : Node_desc.t =
    let meta = word ctx node in
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

  let read_desc ctx node = read_desc_gen tread ctx node

  let tagged_meta ctx node = tread ctx node
  let untag ctx node = Ctx.remove_tag ctx node ~words:node_words

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

  (* Hand-over-hand tagged descent toward [k], stopping at the first node
     satisfying [stop] (or at a leaf). Returns
     [(gp, ixp, p, ixc, curr, curr_meta)]: [ixp] is [p]'s slot in [gp],
     [ixc] is [curr]'s slot in [p]; [null]/[-1] when absent. The returned
     window nodes remain tagged; the caller must clear the tag set.
     Restarts go through {!Ctx.with_restarts} (clear, consult the
     contention policy, re-descend). *)
  let locate_gen ctx t k ~stop =
    Ctx.with_restarts ~site:t.sentinel ctx (fun () ->
        let curr = t.sentinel in
        let cm = tagged_meta ctx curr in
        if not (Ctx.validate ctx) then raise Restart;
        let rec go gp ixp p ixc curr cm =
          if (p <> null && stop ~p ~meta:cm) || Node_desc.meta_leaf cm then
            (gp, ixp, p, ixc, curr, cm)
          else begin
            let ix, next = select_child ctx curr cm k in
            let nm = tagged_meta ctx next in
            if not (Ctx.validate ctx) then raise Restart;
            if gp <> null then untag ctx gp;
            go p ixc curr ix next nm
          end
        in
        go null (-1) null (-1) curr cm)

  let never ~p:_ ~meta:_ = false

  (* Does the node described by [meta] (child of [p]) violate balance? *)
  let violation t ~p ~meta =
    let w = Node_desc.meta_weight meta in
    let count = Node_desc.meta_count meta in
    let leaf = Node_desc.meta_leaf meta in
    if w = 0 then true
    else if p = t.sentinel then (not leaf) && count = 0 (* internal root child with 1 child *)
    else if leaf then count < a
    else count + 1 < a

  (* ------------------------------------------------------------------ *)
  (* Updates. *)

  let rec insert ctx t k =
    let rec go attempt =
      let gp, _ixp, p, ixc, u, _um = locate_gen ctx t k ~stop:never in
      let ud = read_desc ctx u in
      if Node_desc.leaf_contains ud k then begin
        Ctx.clear_tag_set ctx;
        false
      end
      else begin
        (* Only p's slot is written and only u is removed: drop gp's tag to
           avoid collateral invalidation. *)
        if gp <> null then untag ctx gp;
        let target = p + ptrs_off + ixc in
        let grew = Node_desc.leaf_insert ud k in
        let ok =
          if Node_desc.size grew <= b then insert_commit ctx target (write_desc ctx grew)
          else begin
            (* Figure 3(b): split into two leaves under a fresh flagged node. *)
            let l, r, sep = Node_desc.split grew in
            let la = write_desc ctx l in
            let ra = write_desc ctx r in
            let np =
              write_desc ctx
                { weight = 0; leaf = false; keys = [| sep |]; ptrs = [| la; ra |] }
            in
            insert_commit ctx target np
          end
        in
        Ctx.clear_tag_set ctx;
        if ok then begin
          if Node_desc.size grew > b then rebalance ctx t k;
          true
        end
        else begin
          Ctx.cm_wait ~site:target ctx ~attempt;
          go (attempt + 1)
        end
      end
    in
    go 0

  and delete ctx t k =
    let rec go attempt =
      let gp, _ixp, p, ixc, u, _um = locate_gen ctx t k ~stop:never in
      let ud = read_desc ctx u in
      if not (Node_desc.leaf_contains ud k) then begin
        Ctx.clear_tag_set ctx;
        false
      end
      else begin
        if gp <> null then untag ctx gp;
        let target = p + ptrs_off + ixc in
        let shrunk = Node_desc.leaf_remove ud k in
        let ok = Ctx.ias ctx target (write_desc ctx shrunk) in
        Ctx.clear_tag_set ctx;
        if ok then begin
          if Node_desc.size shrunk < a && p <> t.sentinel then rebalance ctx t k;
          true
        end
        else begin
          Ctx.cm_wait ~site:target ctx ~attempt;
          go (attempt + 1)
        end
      end
    in
    go 0

  (* One rebalancing step at the window (gp, p, u). Returns true on a
     successful IAS; false means "inconsistency or conflict — re-descend".
     The tag set still holds {gp?, p, u} (+ possibly a sibling we add). *)
  and apply_step ctx t gp ixp p ixc u um =
    let weight = Node_desc.meta_weight um in
    if weight = 0 then
      if p = t.sentinel then begin
        (* RootUntag: replace the flagged root child by a weight-1 copy. *)
        let ud = read_desc ctx u in
        Ctx.ias ctx (p + ptrs_off + ixc) (write_desc ctx (Node_desc.set_weight ud 1))
      end
      else begin
        (* gp exists because p is not the sentinel. *)
        let pd = read_desc ctx p in
        if ixc >= Array.length pd.ptrs || pd.ptrs.(ixc) <> u || pd.leaf then false
        else begin
          let ud = read_desc ctx u in
          if ud.leaf then false
          else begin
            let comb = Node_desc.absorb ~parent:pd ~ix:ixc ~child:ud in
            let target = gp + ptrs_off + ixp in
            if Node_desc.size comb <= b then
              (* AbsorbChild: p and u replaced by one combined node. *)
              Ctx.ias ctx target (write_desc ctx comb)
            else begin
              (* PropagateTag: the flag violation moves one level up. *)
              let l, r, sep = Node_desc.split comb in
              let la = write_desc ctx l in
              let ra = write_desc ctx r in
              let np =
                write_desc ctx
                  { weight = 0; leaf = false; keys = [| sep |]; ptrs = [| la; ra |] }
              in
              Ctx.ias ctx target np
            end
          end
        end
      end
    else if p = t.sentinel then begin
      (* RootAbsorb: internal root child with a single child. *)
      let ud = read_desc ctx u in
      if ud.leaf || Array.length ud.ptrs <> 1 then false
      else begin
        let child = ud.ptrs.(0) in
        let (_ : int) = tagged_meta ctx child in
        if not (Ctx.validate ctx) then false
        else begin
          let cd = read_desc ctx child in
          Ctx.ias ctx (p + ptrs_off + ixc) (write_desc ctx (Node_desc.set_weight cd 1))
        end
      end
    end
    else begin
      (* Degree violation at u: operate on u and an adjacent sibling. *)
      let pd = read_desc ctx p in
      if ixc >= Array.length pd.ptrs || pd.ptrs.(ixc) <> u || pd.leaf then false
      else begin
        let six = if ixc > 0 then ixc - 1 else ixc + 1 in
        if six >= Array.length pd.ptrs then false
        else begin
          let s = pd.ptrs.(six) in
          let (_ : int) = tagged_meta ctx s in
          if not (Ctx.validate ctx) then false
          else begin
            let sd = read_desc ctx s in
            let target = gp + ptrs_off + ixp in
            if sd.weight = 0 then begin
              (* The sibling carries a flag violation: fix it first
                 (AbsorbChild / PropagateTag on s instead of u). *)
              if sd.leaf then false
              else begin
                let comb = Node_desc.absorb ~parent:pd ~ix:six ~child:sd in
                if Node_desc.size comb <= b then Ctx.ias ctx target (write_desc ctx comb)
                else begin
                  let l, r, sep = Node_desc.split comb in
                  let la = write_desc ctx l in
                  let ra = write_desc ctx r in
                  let np =
                    write_desc ctx
                      { weight = 0; leaf = false; keys = [| sep |]; ptrs = [| la; ra |] }
                  in
                  Ctx.ias ctx target np
                end
              end
            end
            else begin
              let ud = read_desc ctx u in
              let li, l, r = if six < ixc then (six, sd, ud) else (ixc, ud, sd) in
              if l.leaf <> r.leaf || li >= Array.length pd.keys then false
              else begin
                let sep = pd.keys.(li) in
                if Node_desc.size l + Node_desc.size r <= b then begin
                  (* AbsorbSibling (Algorithm 4): merge u and s; p is
                     replaced by a copy with one child fewer. *)
                  let m = write_desc ctx (Node_desc.merge_pair ~sep l r) in
                  let p' = Node_desc.replace_pair_with_one pd li ~addr:m in
                  Ctx.ias ctx target (write_desc ctx p')
                end
                else begin
                  (* Distribute: even out u and s. *)
                  let l', r', sep' = Node_desc.distribute_pair ~sep l r in
                  let la = write_desc ctx l' in
                  let ra = write_desc ctx r' in
                  let p' = Node_desc.update_pair pd li ~left:la ~right:ra ~sep:sep' in
                  Ctx.ias ctx target (write_desc ctx p')
                end
              end
            end
          end
        end
      end
    end

  (* Rebalance (Algorithm 5): repeatedly fix the first violation on the
     search path to k until the whole path is violation-free. *)
  and rebalance ctx t k =
    let stop ~p ~meta = violation t ~p ~meta in
    let gp, ixp, p, ixc, u, um = locate_gen ctx t k ~stop in
    if p = null || not (violation t ~p ~meta:um) then Ctx.clear_tag_set ctx
    else begin
      let (_ : bool) = apply_step ctx t gp ixp p ixc u um in
      Ctx.clear_tag_set ctx;
      (* Whether the step succeeded or aborted, re-examine the path. *)
      rebalance ctx t k
    end

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

  (* Plain (untagged, unvalidated) range collect: descend into the
     subtrees overlapping [lo, hi] with plain reads only. Nodes are
     immutable after creation (updates swing parent pointers to fresh
     copies), so every visited node is internally consistent; the pointer
     graph itself may be a mix of epochs, which is why this is only
     atomic under an external quiescence proof (the sharded store's
     per-shard version protocol). [budget] bounds the visit count so a
     doomed attempt racing live updates still terminates. *)
  let scan_plain ctx t ~lo ~hi ~budget =
    let fuel = ref budget in
    let acc = ref [] in
    let rec visit node =
      if !fuel > 0 then begin
        decr fuel;
        let d = read_desc_gen Ctx.read ctx node in
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

  (* Atomic range snapshot: visit the subtrees overlapping [lo, hi],
     keeping every visited node tagged, then rely on the per-extension
     validates for atomicity. *)
  let range ctx t ~lo ~hi =
    let max_tags = (Mt_sim.Machine.cfg (Ctx.machine ctx)).Mt_sim.Config.max_tags in
    let lines_per_node = ((node_words + 7) / 8) + 1 in
    Ctx.with_restarts ~site:t.sentinel ctx (fun () ->
        match
          let budget = ref (max_tags / lines_per_node) in
          let acc = ref [] in
          let rec visit node =
            decr budget;
            if !budget <= 0 then raise Exit;
            let (_ : int) = tagged_meta ctx node in
            if not (Ctx.validate ctx) then raise Restart;
            let d = read_desc ctx node in
            if d.leaf then
              Array.iter (fun k -> if k >= lo && k <= hi then acc := k :: !acc) d.keys
            else begin
              let first = Node_desc.child_index d lo in
              let last = Node_desc.child_index d hi in
              for i = first to last do
                visit d.ptrs.(i)
              done
            end
          in
          visit t.sentinel;
          List.sort compare !acc
        with
        | keys ->
            Ctx.clear_tag_set ctx;
            Some keys
        | exception Exit ->
            Ctx.clear_tag_set ctx;
            None)

  let check machine t =
    let peek = Mt_sim.Machine.peek machine in
    let reader addr : Checker.node =
      let meta = peek addr in
      let count = Node_desc.meta_count meta in
      let leaf = Node_desc.meta_leaf meta in
      {
        Checker.weight = Node_desc.meta_weight meta;
        leaf;
        keys = Array.init count (fun i -> peek (addr + keys_off + i));
        children =
          (if leaf then [||] else Array.init (count + 1) (fun i -> peek (addr + ptrs_off + i)));
      }
    in
    Checker.check ~a ~b ~reader ~sentinel:t.sentinel

  let to_list_unsafe machine t =
    let peek = Mt_sim.Machine.peek machine in
    (* Accumulates keys in reverse while walking left-to-right. *)
    let rec walk node acc =
      let meta = peek node in
      let count = Node_desc.meta_count meta in
      let acc = ref acc in
      if Node_desc.meta_leaf meta then
        for i = 0 to count - 1 do
          acc := peek (node + keys_off + i) :: !acc
        done
      else
        for i = 0 to count do
          acc := walk (peek (node + ptrs_off + i)) !acc
        done;
      !acc
    in
    List.rev (walk t.sentinel [])
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
