open Mt_core

type t = { head : Ctx.addr; label : string }

let name = "hoh-list"

let create_labelled ~label ctx = { head = Node.sentinels ~label ctx; label }

let create ctx = create_labelled ~label:"hoh-node" ctx

let head t = t.head

exception Restart = Ctx.Restart

type window = Ctx.addr * int * Ctx.addr * int

(* One attempt of LOCATE (Algorithm 2): hand-over-hand tagging. Returns
   [(pred, pw, curr, cw)] with [pred.key < k <= key cw], where [pw] and
   [cw] are the words the tagged loads of [pred] and [curr] read; both
   remain tagged, and the last successful validate proved both reachable
   from the head. Raises [Restart] when a validate fails. The caller must
   eventually [clear_tag_set]. *)
let walk ctx t k : window =
  let pred = t.head in
  (* Tag the head (its key is never read), then curr. *)
  let pw = Node.tagged_read ctx pred in
  let curr = Node.next pw in
  let cw = Node.tagged_read ctx curr in
  if not (Ctx.validate ctx) then raise Restart;
  (* Window invariant: tags = {pred, curr}, both validated in the list,
     and curr was read from pred.next while pred was tagged. The window
     can shrink to {curr} while extending: the Synchronization Rule (a
     delete IAS-invalidates the nodes it removes) means a deletion of
     curr kills our tag on curr directly — the pred tag is not needed to
     detect it. *)
  let rec advance pred pw curr cw =
    if Node.key cw >= k then (pred, pw, curr, cw)
    else begin
      let succ = Node.next cw in
      Ctx.remove_tag ctx pred ~words:Node.words;
      let sw = Node.tagged_read ctx succ in
      if not (Ctx.validate ctx) then raise Restart;
      advance curr cw succ sw
    end
  in
  advance pred pw curr cw

(* LOCATE: {!walk} until it succeeds. Restarts go through
   {!Ctx.with_restarts}: clear the tag set, consult the contention policy,
   try again. *)
let locate ctx t k = Ctx.with_restarts ~site:t.head ctx (fun () -> walk ctx t k)

(* The commit steps on a located window, tags still held: [Some result]
   when the operation is decided, [None] when the VAS/IAS lost a race. *)
let insert_at ctx t ((pred, pw, curr, cw) : window) k =
  if Node.key cw = k then Some false
  else begin
    let node = Node.alloc ~label:t.label ctx ~key:k ~next:curr in
    if Ctx.vas ctx pred (Node.with_next pw node) then Some true else None
  end

(* [cw] still holds curr's successor: the IAS fails if curr was written
   after its tagged load. *)
let delete_at ctx _t ((pred, pw, _, cw) : window) k =
  if Node.key cw <> k then Some false
  else if
    (* IAS, not VAS: invalidate the deleted node (and pred) at all cores so
       concurrent traversals tagging curr fail their next validation. *)
    Ctx.ias ctx pred (Node.with_next pw (Node.next cw))
  then Some true
  else None

(* INSERT and DELETE: locate, then the commit step; a lost race waits on
   the contention policy (keyed by the contended pointer) and retries. *)
let update step ctx t k =
  let rec go attempt =
    let ((pred, _, _, _) as window) = locate ctx t k in
    let result = step ctx t window k in
    Ctx.clear_tag_set ctx;
    match result with
    | Some r -> r
    | None ->
        Ctx.cm_wait ~site:pred ctx ~attempt;
        go (attempt + 1)
  in
  go 0

let insert ctx t k =
  Node.check_key name k;
  update insert_at ctx t k

let delete ctx t k = Node.in_domain k && update delete_at ctx t k

(* Plain untagged traversal. Linearizable without tags or marks because a
   HoH delete never writes the node it deletes: an unlinked node's next
   pointer is frozen forever, so a traversal wandering through a
   concurrently-deleted region follows pointers that were valid at a time
   overlapping this operation — the classic frozen-successor argument. This
   matches the paper's Section 6 note that read operations "remain the
   same" as in the original structures. *)
let contains ctx t k =
  let rec go node =
    let w = Node.read ctx node in
    if Node.key w < k then go (Node.next w) else Node.key w = k
  in
  Node.in_domain k && go (Node.next (Node.read ctx t.head))

let to_list_unsafe machine t = Node.to_list_unsafe machine t.head

module For_testing = struct
  let locate = locate
end

(* Atomic range snapshot: LOCATE [lo] hand-over-hand, then extend from
   [curr] with tagged loads, keeping every node up to the first key past
   [hi] tagged, and certify the whole window with one validate. Keys
   increase along every chain of next pointers, frozen or live, so the
   extension ends at a key past [hi] or at a full tag set. Clamping both
   bounds below the tail's key keeps the walk and the extension off the
   tail's null successor. *)
let range ctx t ~lo ~hi =
  let lo = min lo Node.tail_key and hi = min hi (Node.tail_key - 1) in
  Ctx.certified ~site:t.head ctx (fun load ->
      let _, _, _, cw = walk ctx t lo in
      let rec extend w acc =
        if Node.key w > hi then List.rev acc
        else extend (load ctx (Node.next w) ~words:Node.words) (Node.key w :: acc)
      in
      extend cw [])
