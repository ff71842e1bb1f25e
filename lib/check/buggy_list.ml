open Mt_core
module Node = Mt_list.Node

type t = { head : Ctx.addr }

let name = "buggy-list"

let create ctx = { head = Node.sentinels ctx }

(* Unvalidated traversal; never observes marks because nothing sets them.
   Returns [(pred, pw, curr, cw)]: the nodes and the words it read. *)
let locate ctx t k =
  let rec advance pred pw curr =
    let cw = Node.read ctx curr in
    if Node.key cw >= k then (pred, pw, curr, cw) else advance curr cw (Node.next cw)
  in
  let hw = Node.read ctx t.head in
  advance t.head hw (Node.next hw)

(* The bug: between [locate] and the plain write the fiber stalls on memory
   latency, so a concurrent update to the same neighbourhood is silently
   overwritten — no tag, no validation, no atomic swing. *)
let insert ctx t k =
  Node.check_key name k;
  let pred, _, _, cw = locate ctx t k in
  if Node.key cw = k then false
  else begin
    let pw = Node.read ctx pred in
    let node = Node.alloc ctx ~key:k ~next:(Node.next pw) in
    Ctx.write ctx pred (Node.with_next pw node);
    true
  end

let delete ctx t k =
  if not (Node.in_domain k) then false
  else
    let pred, pw, curr, cw = locate ctx t k in
    if Node.key cw <> k then false
    else begin
      let succ = Node.next (Node.read ctx curr) in
      Ctx.write ctx pred (Node.with_next pw succ);
      true
    end

let contains ctx t k =
  if not (Node.in_domain k) then false
  else
    let _, _, _, cw = locate ctx t k in
    Node.key cw = k

let to_list_unsafe machine t = Node.to_list_unsafe machine t.head
