type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Serialisation. Deterministic: object fields print in the order given,
   floats through one fixed format, no whitespace randomness. *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr x =
  if not (Float.is_finite x) then
    "null" (* JSON has no NaN/inf; never produced by well-behaved callers *)
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else
    (* Shortest representation that parses back to the same double, so
       emit → parse → emit is the identity (the byte-identical-artifact
       guarantee). %.17g always round-trips; prefer fewer digits when
       they suffice. *)
    let s12 = Printf.sprintf "%.12g" x in
    if float_of_string s12 = x then s12
    else
      let s15 = Printf.sprintf "%.15g" x in
      if float_of_string s15 = x then s15 else Printf.sprintf "%.17g" x

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 4096 in
  to_buffer buf t;
  Buffer.contents buf

let to_file path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* A strict recursive-descent parser: enough JSON to round-trip our own
   output and to check well-formedness of emitted artifacts in tests and
   CI without external dependencies. *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let error c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected %C" ch)

let expect_lit c lit value =
  let n = String.length lit in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = lit then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %S" lit)

let parse_string_raw c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then error c "bad \\u escape";
            let hex = String.sub c.src c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* Only BMP escapes we emit ourselves (control chars): keep the
               low byte; fidelity beyond that is not needed here. *)
            Buffer.add_char buf (Char.chr (code land 0xFF));
            go ()
        | _ -> error c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with Some ch when is_num_char ch -> advance c; go () | _ -> ()
  in
  go ();
  if c.pos = start then error c "expected number";
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> error c "malformed number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some 'n' -> expect_lit c "null" Null
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some '"' -> String (parse_string_raw c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin advance c; List [] end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; items (v :: acc)
          | Some ']' -> advance c; List (List.rev (v :: acc))
          | _ -> error c "expected ',' or ']'"
        in
        items []
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin advance c; Obj [] end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string_raw c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; fields (kv :: acc)
          | Some '}' -> advance c; Obj (List.rev (kv :: acc))
          | _ -> error c "expected ',' or '}'"
        in
        fields []
      end
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then error c "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors for validation code. *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
