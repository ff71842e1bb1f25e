open Mt_core

type t = { head : Ctx.addr }

let name = "vas-list"

let create ctx = { head = Node.sentinels ~label:"vas-node" ctx }

(* HELPIFNEEDED (Algorithm 1, lines 3-12): [curr], whose word is [cw], is
   marked; unlink it from [pred] with tag + VAS. Always followed by a
   restart of LOCATE. *)
let help ctx pred curr cw =
  let pw = Node.tagged_read ctx pred in
  if Node.is_marked pw || Node.next pw <> curr then Ctx.clear_tag_set ctx
  else begin
    let (_ : int) = Node.tagged_read ctx curr in
    (* Marked nodes never change, so succ is the same for all helpers. *)
    ignore (Ctx.vas ctx pred (Node.with_next pw (Node.next cw)));
    Ctx.clear_tag_set ctx
  end

(* LOCATE (Algorithm 1, lines 13-21): untagged traversal; helping restarts
   the search from scratch. Returns [(pred, curr, curr_key)]. *)
let rec locate ctx t k =
  let rec advance pred curr =
    let cw = Node.read ctx curr in
    if Node.is_marked cw then begin
      help ctx pred curr cw;
      locate ctx t k
    end
    else if Node.key cw >= k then (pred, curr, Node.key cw)
    else advance curr (Node.next cw)
  in
  advance t.head (Node.next (Node.read ctx t.head))

(* Tag pred and curr, then re-check that both are unmarked and adjacent
   (Algorithm 1 lines 26-30 / 40-45). Returns [None] on conflict,
   otherwise [Some (pw, cw)], the words the tagged loads read. *)
let tag_and_check ctx pred curr =
  let pw = Node.tagged_read ctx pred in
  let cw = Node.tagged_read ctx curr in
  if Node.is_marked pw || Node.is_marked cw || Node.next pw <> curr then begin
    Ctx.clear_tag_set ctx;
    None
  end
  else Some (pw, cw)

let insert ctx t k =
  Node.check_key name k;
  let rec go attempt =
    let pred, curr, ck = locate ctx t k in
    if ck = k then false
    else
      let retry () =
        Ctx.cm_wait ~site:pred ctx ~attempt;
        go (attempt + 1)
      in
      match tag_and_check ctx pred curr with
      | None -> retry ()
      | Some (pw, _cw) ->
          let node = Node.alloc ~label:"vas-node" ctx ~key:k ~next:curr in
          if Ctx.vas ctx pred (Node.with_next pw node) then begin
            Ctx.clear_tag_set ctx;
            true
          end
          else begin
            Ctx.clear_tag_set ctx;
            retry ()
          end
  in
  go 0

let delete ctx t k =
  let rec go attempt =
    let pred, curr, ck = locate ctx t k in
    if ck <> k then false
    else
      let retry site =
        Ctx.cm_wait ~site ctx ~attempt;
        go (attempt + 1)
      in
      match tag_and_check ctx pred curr with
      | None -> retry pred
      | Some (pw, cw) ->
          (* Logical deletion via VAS on curr's own word. *)
          if not (Ctx.vas ctx curr (Node.mark cw)) then begin
            Ctx.clear_tag_set ctx;
            retry curr
          end
          else begin
            (* Best-effort unlink; our own mark write did not evict our tags. *)
            ignore (Ctx.vas ctx pred (Node.with_next pw (Node.next cw)));
            Ctx.clear_tag_set ctx;
            true
          end
  in
  Node.in_domain k && go 0

let contains ctx t k =
  let rec go node =
    let w = Node.read ctx node in
    if Node.key w < k then go (Node.next w)
    else Node.key w = k && not (Node.is_marked w)
  in
  Node.in_domain k && go (Node.next (Node.read ctx t.head))

let to_list_unsafe machine t = Node.to_list_unsafe machine t.head
