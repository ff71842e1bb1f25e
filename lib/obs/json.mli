(** Minimal dependency-free JSON: a value type, a deterministic serialiser,
    and a strict parser used to validate emitted artifacts (benchmark
    output, Perfetto traces) in tests and CI.

    Serialisation is byte-deterministic: object fields keep the order they
    were built in, floats go through one fixed format, and no whitespace is
    emitted — a prerequisite for the "identical seeds produce byte-identical
    traces" guarantee. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** [to_file path t] writes [t] followed by a newline. *)
val to_file : string -> t -> unit

exception Parse_error of string

(** Strict parse of a complete document; raises {!Parse_error} on any
    malformation, including trailing garbage. *)
val of_string : string -> t

(** [member key json] — the field's value if [json] is an object that has
    it. *)
val member : string -> t -> t option
