type reader = int -> Node_desc.t

type report = { ok : bool; errors : string list; nodes : int; height : int; n_keys : int }

let check ~a ~b ~reader ~sentinel =
  let errors = ref [] in
  let nodes = ref 0 in
  let n_keys = ref 0 in
  let leaf_depths = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let sorted keys =
    let ok = ref true in
    for i = 0 to Array.length keys - 2 do
      if keys.(i) >= keys.(i + 1) then ok := false
    done;
    !ok
  in
  (* [lo, hi) bounds the keys allowed in this subtree. *)
  let rec walk addr ~depth ~lo ~hi ~is_root_child =
    incr nodes;
    let n : Node_desc.t = reader addr in
    if n.weight <> 1 then err "node %d: weight %d at quiescence" addr n.weight;
    if not (sorted n.keys) then err "node %d: keys not sorted" addr;
    Array.iter
      (fun k ->
        if k < lo || k >= hi then err "node %d: key %d outside [%d,%d)" addr k lo hi)
      n.keys;
    if n.leaf then begin
      n_keys := !n_keys + Array.length n.keys;
      leaf_depths := depth :: !leaf_depths;
      if Array.length n.ptrs <> 0 then err "leaf %d has children" addr;
      if (not is_root_child) && Array.length n.keys < a then
        err "leaf %d: %d keys < a" addr (Array.length n.keys);
      if Array.length n.keys > b then err "leaf %d: %d keys > b" addr (Array.length n.keys)
    end
    else begin
      let c = Array.length n.ptrs in
      if c <> Array.length n.keys + 1 then
        err "internal %d: %d children vs %d keys" addr c (Array.length n.keys);
      if is_root_child && c < 2 then err "internal root child %d: %d children" addr c;
      if (not is_root_child) && c < a then err "internal %d: %d children < a" addr c;
      if c > b then err "internal %d: %d children > b" addr c;
      for i = 0 to c - 1 do
        let lo' = if i = 0 then lo else n.keys.(i - 1) in
        let hi' = if i = c - 1 then hi else n.keys.(i) in
        walk n.ptrs.(i) ~depth:(depth + 1) ~lo:lo' ~hi:hi' ~is_root_child:false
      done
    end
  in
  let sent : Node_desc.t = reader sentinel in
  if sent.leaf || Array.length sent.ptrs <> 1 then
    err "sentinel %d malformed" sentinel;
  if not sent.leaf then
    walk sent.ptrs.(0) ~depth:1 ~lo:min_int ~hi:max_int ~is_root_child:true;
  let height = match !leaf_depths with [] -> 0 | d :: _ -> d in
  List.iter
    (fun d -> if d <> height then err "leaf depth %d differs from %d" d height)
    !leaf_depths;
  { ok = !errors = []; errors = List.rev !errors; nodes = !nodes; height; n_keys = !n_keys }

let keys ~reader ~sentinel =
  let rec walk addr acc =
    let d : Node_desc.t = reader addr in
    if d.leaf then Array.fold_right List.cons d.keys acc
    else Array.fold_right walk d.ptrs acc
  in
  walk sentinel []
