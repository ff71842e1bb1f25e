(* Parallel-plane binary min-heap (DESIGN §12). Keys live in one unboxed
   interleaved int plane — entry [i] holds [time; tie; aux; slot] at
   stride [4 * i] (a power of two, so slot addressing is a shift),
   keeping a near-full scheduler heap inside a couple of cache lines.
   Values live in a slot table, [vals], at the index the entry's fourth
   key word names; a sift moves the four ints only, so it never runs the
   write barrier ([caml_modify]) that moving an [Obj.t] would. [add]
   takes a slot from the [free] stack, [pop] returns it, and [exchange]
   reuses the popped entry's slot for the incoming value. The
   comparison/swap sequence is exactly the classic sift-up / sift-down
   of the previous record-based heap; keys are strict total orders at
   every call site (ties embed the fiber id), so pop order — and hence
   the whole simulation schedule — is a pure function of the key
   multiset and none of the layout changes are observable.

   A vacated slot is reset to [filler] (or overwritten, by [exchange]):
   a popped value (in the scheduler, a whole fiber continuation) must not
   stay reachable through the table, and [grow] never pins an arbitrary
   live value as filler.

   Safety of [Obj]: the slot table only ever holds values of the heap's
   ['a] (written by [add]/[add_aux]/[exchange], read back by [pop]/
   [exchange]); [filler] is an immediate and is never returned. [Obj.repr
   0] also keeps the table a generic (non-float) array. Unchecked key
   accesses are all at entries below [size], which the key plane
   accommodates by construction. *)

type 'a t = {
  mutable keys : int array;  (* stride 4: time, tie, aux, slot *)
  mutable vals : Obj.t array;  (* slot table *)
  mutable free : int array;  (* unused slots: a stack of [nfree] *)
  mutable nfree : int;
  mutable size : int;
  mutable x_time : int;  (* key/aux of the last [exchange]d-out entry *)
  mutable x_aux : int;
}

let filler = Obj.repr 0

let create () =
  { keys = [||]; vals = [||]; free = [||]; nfree = 0; size = 0; x_time = 0; x_aux = 0 }

let is_empty t = t.size = 0

let[@inline] less t i j =
  let k = t.keys in
  let ti = Array.unsafe_get k (i lsl 2) and tj = Array.unsafe_get k (j lsl 2) in
  ti < tj
  || (ti = tj
     && Array.unsafe_get k ((i lsl 2) + 1) < Array.unsafe_get k ((j lsl 2) + 1))

let[@inline] swap_word (k : int array) a b =
  let x = Array.unsafe_get k a in
  Array.unsafe_set k a (Array.unsafe_get k b);
  Array.unsafe_set k b x

let[@inline] swap t i j =
  let k = t.keys in
  let bi = i lsl 2 and bj = j lsl 2 in
  swap_word k bi bj;
  swap_word k (bi + 1) (bj + 1);
  swap_word k (bi + 2) (bj + 2);
  swap_word k (bi + 3) (bj + 3)

let grow t =
  let cap = Array.length t.vals in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let keys = Array.make (ncap lsl 2) 0 in
    Array.blit t.keys 0 keys 0 (cap lsl 2);
    t.keys <- keys;
    let vals = Array.make ncap filler in
    Array.blit t.vals 0 vals 0 cap;
    t.vals <- vals;
    (* The heap is full, so every old slot is in use: the free stack is
       exactly the new ones. *)
    t.free <- Array.init ncap (fun i -> ncap - 1 - i);
    t.nfree <- ncap - cap
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t l !smallest then smallest := l;
  if r < t.size && less t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let add_aux t ~time ~tie ~aux value =
  grow t;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  t.vals.(slot) <- Obj.repr value;
  let i = t.size in
  let b = i lsl 2 in
  t.keys.(b) <- time;
  t.keys.(b + 1) <- tie;
  t.keys.(b + 2) <- aux;
  t.keys.(b + 3) <- slot;
  t.size <- i + 1;
  sift_up t i

let add t ~time ~tie value = add_aux t ~time ~tie ~aux:0 value

let top_time t = t.keys.(0)
let top_tie t = t.keys.(1)
let top_aux t = t.keys.(2)

let first_not_before t ~tie =
  if t.size = 0 then max_int
  else if tie < Array.unsafe_get t.keys 1 then Array.unsafe_get t.keys 0 + 1
  else Array.unsafe_get t.keys 0

let pop (type a) (t : a t) : a =
  if t.size = 0 then invalid_arg "Pqueue.pop: empty";
  let slot = t.keys.(3) in
  let v = t.vals.(slot) in
  t.vals.(slot) <- filler;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  let last = t.size - 1 in
  t.size <- last;
  let b = last lsl 2 in
  for o = 0 to 3 do
    t.keys.(o) <- t.keys.(b + o)
  done;
  sift_down t 0;
  (Obj.obj v : a)

let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty";
  let time = top_time t and tie = top_tie t in
  let v = pop t in
  (time, tie, v)

(* Fused pop-then-add for the scheduler's suspension path: the incoming
   key is ≥ the minimum's (that is exactly the slow-path condition), so
   popping the root and sifting the new entry down from the root slot is
   equivalent to [add_aux] followed by [pop] — one sift instead of two.
   The incoming value takes the popped one's slot.
   Keys form a strict total order, so the (possibly different) internal
   arrangement is unobservable through pop order. *)
let exchange (type a) (t : a t) ~time ~tie ~aux (value : a) : a =
  if t.size = 0 then invalid_arg "Pqueue.exchange: empty";
  let slot = t.keys.(3) in
  let v = t.vals.(slot) in
  t.vals.(slot) <- Obj.repr value;
  t.x_time <- t.keys.(0);
  t.x_aux <- t.keys.(2);
  t.keys.(0) <- time;
  t.keys.(1) <- tie;
  t.keys.(2) <- aux;
  sift_down t 0;
  (Obj.obj v : a)

let xchg_time t = t.x_time
let xchg_aux t = t.x_aux
