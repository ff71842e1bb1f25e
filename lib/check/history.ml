type op = Insert of int | Delete of int | Contains of int

type event = {
  core : int;
  op : op;
  result : bool;
  t_inv : int;
  t_res : int;
}

type t = { mutable rev_events : event list }

let create () = { rev_events = [] }

let record t ctx op f =
  let t_inv = Mt_core.Ctx.now ctx in
  let result = f () in
  let t_res = Mt_core.Ctx.now ctx in
  t.rev_events <-
    { core = Mt_core.Ctx.core ctx; op; result; t_inv; t_res } :: t.rev_events;
  result

let compare_event a b =
  compare (a.t_inv, a.t_res, a.core, a.op) (b.t_inv, b.t_res, b.core, b.op)

let events t =
  let arr = Array.of_list t.rev_events in
  Array.sort compare_event arr;
  arr

let key_of = function Insert k | Delete k | Contains k -> k

let op_name = function
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Contains _ -> "contains"

let pp_event ppf e =
  Format.fprintf ppf "[core %d] %s(%d) = %b @@ %d..%d" e.core (op_name e.op)
    (key_of e.op) e.result e.t_inv e.t_res

let to_string arr =
  let buf = Buffer.create (Array.length arr * 40) in
  Array.iter
    (fun e ->
      Buffer.add_string buf (Format.asprintf "%a" pp_event e);
      Buffer.add_char buf '\n')
    arr;
  Buffer.contents buf
