(** Half-width words: two 31-bit unsigned halves packed in one simulated
    word, [low] in bits 0-30 and [high] in bits 31-61. The store's
    B+-tree ([Mt_store.Tx_btree]), both (a,b)-trees
    ([Mt_abtree.Node_desc]) and the linked lists ([Mt_list.Node]: key low,
    successor and mark high) lay their nodes out in these halves, so
    every key, header and node address they store must lie in
    [\[0, limit)]. *)

(** [2^31], the first value that does not fit a half. *)
val limit : int

(** [fits v] — does [v] lie in [\[0, limit)]? *)
val fits : int -> bool

(** The half in bits 0-30. *)
val low : int -> int

(** The half in bits 31-61. *)
val high : int -> int

(** [pack lo hi] — the word with halves [lo] and [hi]; both must fit. *)
val pack : int -> int -> int
