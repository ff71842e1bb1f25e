open Mt_core

type t = { head : Ctx.addr }

let name = "harris-list"

let create ctx = { head = Node.sentinels ~label:"harris-node" ctx }

(* [search ctx t k] returns [(pred, pw, curr, cw)] with
   [pred.key < k <= key cw], where [pw] and [cw] are the unmarked words of
   [pred] and [curr] as observed. Physically unlinks any marked nodes it
   passes (Michael's helping). *)
let rec search ctx t k =
  let rec advance pred pw curr =
    let cw = Node.read ctx curr in
    if Node.is_marked cw then begin
      let unlinked = Node.with_next pw (Node.next cw) in
      if Ctx.cas ctx pred ~expected:pw ~desired:unlinked then
        advance pred unlinked (Node.next cw)
      else search ctx t k
    end
    else if Node.key cw >= k then (pred, pw, curr, cw)
    else advance curr cw (Node.next cw)
  in
  let hw = Node.read ctx t.head in
  advance t.head hw (Node.next hw)

let insert ctx t k =
  Node.check_key name k;
  let rec go () =
    let pred, pw, curr, cw = search ctx t k in
    if Node.key cw = k then false
    else begin
      let node = Node.alloc ~label:"harris-node" ctx ~key:k ~next:curr in
      if Ctx.cas ctx pred ~expected:pw ~desired:(Node.with_next pw node) then true
      else go ()
    end
  in
  go ()

let delete ctx t k =
  let rec go () =
    let pred, pw, curr, cw = search ctx t k in
    if Node.key cw <> k then false
    else begin
      (* A fresh read: a successor inserted since the search does not fail
         the mark. *)
      let cw = Node.read ctx curr in
      if Node.is_marked cw then go ()
      else if
        (* Logical deletion: set the mark bit in curr's word. *)
        Ctx.cas ctx curr ~expected:cw ~desired:(Node.mark cw)
      then begin
        (* Best-effort physical unlink; traversals will finish the job. *)
        ignore (Ctx.cas ctx pred ~expected:pw ~desired:(Node.with_next pw (Node.next cw)));
        true
      end
      else go ()
    end
  in
  Node.in_domain k && go ()

(* Wait-free membership test: pure traversal, no helping. *)
let contains ctx t k =
  let rec go node =
    let w = Node.read ctx node in
    if Node.key w < k then go (Node.next w)
    else Node.key w = k && not (Node.is_marked w)
  in
  Node.in_domain k && go (Node.next (Node.read ctx t.head))

let to_list_unsafe machine t = Node.to_list_unsafe machine t.head
