(** The one node layout of the list variants.

    A node is one word on its own cache line: the key in the low
    {!Mt_core.Half} and [(next lsl 1) lor mark] in the high half. One load
    reads a node's key, successor and mark together, so every traversal
    step is one access, and every pointer swing writes a whole word: the
    swung node's word with a new successor ({!with_next}) or its mark set
    ({!mark}). A node's key never changes after {!alloc}, so a word read
    earlier supplies the key half of every later write to that node.

    The marking-based variants (Harris–Michael, VAS) set the mark on a
    logically deleted node; the HoH variants never set it. Successors are
    word addresses below [2^30]; keys lie in [\[0, Half.limit - 1)]. The
    tail sentinel holds [Half.limit - 1] and a null successor; the head
    sentinel's key is never read. *)

(** Words per node (1); {!Mt_sim.Memory.alloc} rounds a node up to a
    line. *)
val words : int

(** The tail sentinel's key, [Half.limit - 1]: above every key in the
    domain. *)
val tail_key : int

(** [in_domain k] — is [k] a key a list can hold, [\[0, Half.limit - 1)]? *)
val in_domain : int -> bool

(** [check_key name k] raises [Invalid_argument], naming [name ^ ".insert"],
    when [k] is not {!in_domain}. *)
val check_key : string -> int -> unit

(** [word ~key ~next] — the unmarked word of a node. *)
val word : key:int -> next:Mt_core.Ctx.addr -> int

val key : int -> int
val next : int -> Mt_core.Ctx.addr
val is_marked : int -> bool

(** [with_next w n] — [w] with successor [n], its key kept, unmarked. *)
val with_next : int -> Mt_core.Ctx.addr -> int

(** [mark w] — [w] with its mark set. *)
val mark : int -> int

(** [read ctx node] — the node's word, by a plain load. *)
val read : Mt_core.Ctx.t -> Mt_core.Ctx.addr -> int

(** [tagged_read ctx node] — tag the node's line and read its word in one
    access (the paper's "AddTag(x, sizeof(node)); read x"). *)
val tagged_read : Mt_core.Ctx.t -> Mt_core.Ctx.addr -> int

(** [alloc ?label ctx ~key ~next] — a fresh unmarked node on its own line.
    [label] attributes the line in the hot-line contention profile
    (default ["list-node"]). *)
val alloc : ?label:string -> Mt_core.Ctx.t -> key:int -> next:Mt_core.Ctx.addr -> Mt_core.Ctx.addr

(** [sentinels ?label ctx] allocates the tail, then the head pointing at
    it, and returns the head. *)
val sentinels : ?label:string -> Mt_core.Ctx.t -> Mt_core.Ctx.addr

(** [to_list_unsafe machine head] — the unmarked keys after [head], in
    list order, sentinels excluded, read directly from memory (test
    oracles; quiescent machine only). *)
val to_list_unsafe : Mt_sim.Machine.t -> Mt_core.Ctx.addr -> int list
