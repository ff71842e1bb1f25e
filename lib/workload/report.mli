(** Plain-text table rendering for benchmark output.

    The bench harness prints one table per paper figure; columns are padded
    to a fixed width so the output is readable in a terminal and easy to
    diff across runs. *)

(** [table ~title ~columns rows] prints a padded table to stdout. Every row
    must have the same arity as [columns]. *)
val table : title:string -> columns:string list -> string list list -> unit

(** Format helpers for table cells. *)
val f2 : float -> string
(** two decimals *)

val pct : float -> string
(** fraction -> "12.34%" *)

