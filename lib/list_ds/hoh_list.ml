open Mt_core

type t = { head : Ctx.addr; label : string }

let name = "hoh-list"

let create_labelled ~label ctx =
  let tail = Node.alloc ~label ctx ~key:max_int ~next:Mt_sim.Memory.null ~marked:false in
  let head = Node.alloc ~label ctx ~key:min_int ~next:tail ~marked:false in
  { head; label }

let create ctx = create_labelled ~label:"hoh-node" ctx

let head t = t.head

exception Restart = Ctx.Restart

(* One attempt of LOCATE (Algorithm 2): hand-over-hand tagging. Returns
   [(pred, curr, curr_key)] with [pred.key < k <= curr_key]; [pred] and
   [curr] remain tagged, and the last successful validate proved both
   reachable from the head. Raises [Restart] when a validate fails. The
   caller must eventually [clear_tag_set]. *)
let walk ctx t k =
  let pred = t.head in
  (* Tag the head (its key is -inf), then a tagged load of curr's key. *)
  let (_ : int) = Node.tagged_key ctx pred in
  let curr = Node.ptr_of (Node.next_packed ctx pred) in
  let ck = Node.tagged_key ctx curr in
  if not (Ctx.validate ctx) then raise Restart;
  (* Window invariant: tags = {pred, curr}, both validated in the list,
     and curr was read from pred.next while pred was tagged. The window
     can shrink to {curr} while extending: the Synchronization Rule (a
     delete IAS-invalidates the nodes it removes) means a deletion of
     curr kills our tag on curr directly — the pred tag is not needed to
     detect it. *)
  let rec advance pred curr ck =
    if ck >= k then (pred, curr, ck)
    else begin
      let succ = Node.ptr_of (Node.next_packed ctx curr) in
      Ctx.remove_tag ctx pred ~words:Node.words;
      let sk = Node.tagged_key ctx succ in
      if not (Ctx.validate ctx) then raise Restart;
      advance curr succ sk
    end
  in
  advance pred curr ck

(* LOCATE: {!walk} until it succeeds. Restarts go through
   {!Ctx.with_restarts}: clear the tag set, consult the contention policy,
   try again. *)
let locate ctx t k = Ctx.with_restarts ~site:t.head ctx (fun () -> walk ctx t k)

(* The commit steps on a located window, tags still held: [Some result]
   when the operation is decided, [None] when the VAS/IAS lost a race. *)
let insert_at ctx t (pred, curr, ck) k =
  if ck = k then Some false
  else begin
    let node = Node.alloc ~label:t.label ctx ~key:k ~next:curr ~marked:false in
    if Ctx.vas ctx (pred + Node.next_off) (Node.pack node ~marked:false) then Some true
    else None
  end

let delete_at ctx _t (pred, curr, ck) k =
  if ck <> k then Some false
  else begin
    let succ = Node.ptr_of (Node.next_packed ctx curr) in
    (* IAS, not VAS: invalidate the deleted node (and pred) at all cores so
       concurrent traversals tagging curr fail their next validation. *)
    if Ctx.ias ctx (pred + Node.next_off) (Node.pack succ ~marked:false) then Some true
    else None
  end

(* INSERT and DELETE: locate, then the commit step; a lost race waits on
   the contention policy (keyed by the contended pointer) and retries. *)
let update step ctx t k =
  let rec go attempt =
    let ((pred, _, _) as window) = locate ctx t k in
    let result = step ctx t window k in
    Ctx.clear_tag_set ctx;
    match result with
    | Some r -> r
    | None ->
        Ctx.cm_wait ~site:(pred + Node.next_off) ctx ~attempt;
        go (attempt + 1)
  in
  go 0

let insert ctx t k = update insert_at ctx t k
let delete ctx t k = update delete_at ctx t k

(* Plain untagged traversal. Linearizable without tags or marks because a
   HoH delete never writes the node it deletes: an unlinked node's next
   pointer is frozen forever, so a traversal wandering through a
   concurrently-deleted region follows pointers that were valid at a time
   overlapping this operation — the classic frozen-successor argument. This
   matches the paper's Section 6 note that read operations "remain the
   same" as in the original structures. *)
let contains ctx t k =
  let rec go node =
    let ck = Node.key ctx node in
    if ck < k then go (Node.ptr_of (Node.next_packed ctx node)) else ck = k
  in
  go (Node.ptr_of (Node.next_packed ctx t.head))

let to_list_unsafe machine t = Node.to_list_unsafe machine t.head

module For_testing = struct
  let locate = locate
end

(* Atomic range snapshot: LOCATE [lo] hand-over-hand, then extend from
   [curr] with tagged loads, keeping every node up to the first key past
   [hi] tagged, and certify the whole window with one validate. Keys
   increase along every chain of next pointers, frozen or live, so the
   extension ends at a key past [hi] or at a full tag set. *)
let range ctx t ~lo ~hi =
  Ctx.certified ~site:t.head ctx (fun load ->
      let _, curr, ck = walk ctx t lo in
      let rec extend node nk acc =
        if nk > hi then List.rev acc
        else begin
          let succ = Node.ptr_of (Node.next_packed ctx node) in
          let sk = load ctx (succ + Node.key_off) ~words:Node.words in
          extend succ sk (nk :: acc)
        end
      in
      extend curr ck [])
