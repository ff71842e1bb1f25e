let f2 x = Printf.sprintf "%.2f" x
let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)

let table ~title ~columns rows =
  List.iter
    (fun row ->
      if List.length row <> List.length columns then
        invalid_arg "Report.table: row arity mismatch")
    rows;
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length col) rows)
      columns
  in
  let pad width s = s ^ String.make (max 0 (width - String.length s)) ' ' in
  let render cells = String.concat "  " (List.map2 pad widths cells) in
  let rule = String.concat "--" (List.map (fun w -> String.make w '-') widths) in
  print_newline ();
  print_endline title;
  print_endline rule;
  print_endline (render columns);
  print_endline rule;
  List.iter (fun row -> print_endline (render row)) rows;
  print_endline rule
