open Mt_core

type t = {
  list : Hoh_list.t;
  mode : Mode.t;
  lock : Ctx.addr;
  slow_runs : Ctx.addr;  (* diagnostic counter, in simulated memory *)
}

let name = "elided-hoh-list"

(* Consecutive fast-path failures before giving up on the fast path. *)
let threshold = 8

let create ctx =
  let list = Hoh_list.create_labelled ~label:"elided-node" ctx in
  let machine = Ctx.machine ctx in
  { list; mode = Mode.create machine; lock = Ctx.alloc ~label:"elided-lock" ctx ~words:1;
    slow_runs = Ctx.alloc ~label:"elided-lock" ctx ~words:1 }

let slow_path_count machine t = Mt_sim.Machine.peek machine t.slow_runs

exception Restart = Ctx.Restart

exception Mode_slow

(* ------------------------------------------------------------------ *)
(* Fast path: one attempt of the HoH algorithm, with the mode line in the
   tag set, so every validation and VAS/IAS also checks the mode. *)

(* Tag the mode line and check it reads FAST. A SLOW reading is not a
   fast-path failure: the caller waits for the mode to return to FAST
   rather than escalating (otherwise one fallback would cascade into a
   fallback stampede). *)
let arm_mode ctx t =
  if Ctx.add_tag_read ctx (Mode.addr t.mode) ~words:1 <> Mode.fast then raise Mode_slow

(* [step] is {!Hoh_list.insert_at} or {!Hoh_list.delete_at}; a lost swap
   counts as a failed attempt, like a failed validation. *)
let fast step ctx t k =
  arm_mode ctx t;
  match step ctx t.list (Hoh_list.walk ctx t.list k) k with
  | Some result -> result
  | None -> raise Restart

(* ------------------------------------------------------------------ *)
(* Slow path: plain sequential code under the global lock, with the mode
   flipped to SLOW so that no fast-path operation can commit meanwhile. *)

let with_lock ctx t f =
  let rec acquire () =
    if not (Ctx.cas ctx t.lock ~expected:0 ~desired:1) then begin
      Ctx.work ctx 8;
      acquire ()
    end
  in
  acquire ();
  Mode.set_slow ctx t.mode;
  let (_ : int) = Ctx.faa ctx t.slow_runs 1 in
  let result = f () in
  Mode.set_fast ctx t.mode;
  Ctx.write ctx t.lock 0;
  result

let slow_locate ctx t k =
  let rec go pred pw curr =
    let cw = Node.read ctx curr in
    if Node.key cw >= k then (pred, pw, cw) else go curr cw (Node.next cw)
  in
  let head = Hoh_list.head t.list in
  let hw = Node.read ctx head in
  go head hw (Node.next hw)

let slow_insert ctx t k () =
  let pred, pw, cw = slow_locate ctx t k in
  if Node.key cw = k then false
  else begin
    let node = Node.alloc ~label:"elided-node" ctx ~key:k ~next:(Node.next pw) in
    Ctx.write ctx pred (Node.with_next pw node);
    true
  end

let slow_delete ctx t k () =
  let pred, pw, cw = slow_locate ctx t k in
  if Node.key cw <> k then false
  else begin
    Ctx.write ctx pred (Node.with_next pw (Node.next cw));
    true
  end

(* ------------------------------------------------------------------ *)

(* Run the fast path with bounded retries, then fall back to [slow] under
   the lock. When the mode reads SLOW we also wait-or-fallback
   immediately. This keeps its own loop rather than {!Ctx.with_restarts}
   because the failure counter doubles as the lock-fallback trigger; the
   contention policy hooks in before each fast-path retry (a no-op under
   [immediate], preserving the historical behavior exactly). *)
let elide ctx t k ~step ~slow =
  let rec wait_fast () =
    if not (Mode.is_fast ctx t.mode) then begin
      Ctx.work ctx 32;
      wait_fast ()
    end
  in
  let rec attempt fails =
    if fails >= threshold then begin
      Ctx.clear_tag_set ctx;
      with_lock ctx t (slow ctx t k)
    end
    else
      match fast step ctx t k with
      | result ->
          Ctx.clear_tag_set ctx;
          result
      | exception Restart ->
          Ctx.clear_tag_set ctx;
          Ctx.cm_wait ~site:(Hoh_list.head t.list) ctx ~attempt:fails;
          attempt (fails + 1)
      | exception Mode_slow ->
          Ctx.clear_tag_set ctx;
          wait_fast ();
          attempt fails
  in
  attempt 0

let insert ctx t k =
  Node.check_key name k;
  elide ctx t k ~step:Hoh_list.insert_at ~slow:slow_insert

let delete ctx t k =
  Node.in_domain k && elide ctx t k ~step:Hoh_list.delete_at ~slow:slow_delete

(* Plain traversal; linearizable for the same frozen-successor reason as in
   Hoh_list: neither fast nor slow deletes ever write the removed node. *)
let contains ctx t = Hoh_list.contains ctx t.list

let to_list_unsafe machine t = Hoh_list.to_list_unsafe machine t.list
