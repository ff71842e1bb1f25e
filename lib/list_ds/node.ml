open Mt_core

let words = 1
let tail_key = Half.limit - 1
let in_domain k = k >= 0 && k < tail_key

let word ~key ~next = Half.pack key (next lsl 1)
let key w = Half.low w
let next w = Half.high w lsr 1
let is_marked w = Half.high w land 1 = 1
let with_next w n = word ~key:(key w) ~next:n
let mark w = Half.pack (key w) (Half.high w lor 1)

let read ctx node = Ctx.read ctx node
let tagged_read ctx node = Ctx.add_tag_read ctx node ~words

let alloc ?(label = "list-node") ctx ~key ~next =
  let node = Ctx.alloc ~label ctx ~words in
  Ctx.write ctx node (word ~key ~next);
  node

let sentinels ?label ctx =
  let tail = alloc ?label ctx ~key:tail_key ~next:Mt_sim.Memory.null in
  alloc ?label ctx ~key:0 ~next:tail

let check_key name k =
  if not (in_domain k) then
    invalid_arg
      (Printf.sprintf "%s.insert: key %d outside [0, 2^31 - 1)" name k)

let to_list_unsafe machine head =
  let peek node = Mt_sim.Machine.peek machine node in
  (* The tail, the one node with a null successor, ends the walk. *)
  let rec go node acc =
    let w = peek node in
    if next w = Mt_sim.Memory.null then List.rev acc
    else go (next w) (if is_marked w then acc else key w :: acc)
  in
  go (next (peek head)) []
