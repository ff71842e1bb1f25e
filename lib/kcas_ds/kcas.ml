open Mt_core

type addr = Ctx.addr

type update = { addr : addr; expected : int; desired : int }

(* Word encoding: plain values carry tag 00 (value lsl 2); an RDCSS
   descriptor pointer carries tag 01; an MCAS descriptor pointer tag 10.
   Descriptor addresses are word addresses, so shifting loses nothing. *)
let enc v =
  if v < 0 || v >= 1 lsl 60 then invalid_arg "Kcas: value out of range";
  v lsl 2

let dec w = w lsr 2
let rdcss_ptr d = (d lsl 2) lor 1
let mcas_ptr d = (d lsl 2) lor 2
let is_rdcss w = w land 3 = 1
let is_mcas w = w land 3 = 2
let desc_of w = w lsr 2

(* MCAS descriptor layout: [0] status, [1] n, then n triples
   (addr, expected, desired) — expected/desired already encoded. *)
let undecided = 0
let succeeded = 1
let failed = 2

(* RDCSS descriptor: [0] status_addr (a1), [1] expected_status (o1),
   [2] target (a2), [3] expected (o2), [4] new value (n2). *)

let init ctx a v = Ctx.write ctx a (enc v)

(* Complete an RDCSS whose descriptor is installed at its target: keep the
   new value iff the MCAS is still undecided, else roll back. *)
let rdcss_complete ctx d =
  let a1 = Ctx.read ctx d in
  let o1 = Ctx.read ctx (d + 1) in
  let a2 = Ctx.read ctx (d + 2) in
  let o2 = Ctx.read ctx (d + 3) in
  let n2 = Ctx.read ctx (d + 4) in
  let v = Ctx.read ctx a1 in
  if v = o1 then ignore (Ctx.cas ctx a2 ~expected:(rdcss_ptr d) ~desired:n2)
  else ignore (Ctx.cas ctx a2 ~expected:(rdcss_ptr d) ~desired:o2)

(* RDCSS(a1, o1, a2, o2, n2): write n2 into a2 iff a2 = o2 and a1 = o1. *)
let rdcss ctx ~a1 ~o1 ~a2 ~o2 ~n2 =
  let d = Ctx.alloc ~label:"rdcss-desc" ctx ~words:5 in
  Ctx.write ctx d a1;
  Ctx.write ctx (d + 1) o1;
  Ctx.write ctx (d + 2) a2;
  Ctx.write ctx (d + 3) o2;
  Ctx.write ctx (d + 4) n2;
  let rec install () =
    let ok = Ctx.cas ctx a2 ~expected:o2 ~desired:(rdcss_ptr d) in
    if ok then begin
      rdcss_complete ctx d;
      o2
    end
    else begin
      let r = Ctx.read ctx a2 in
      if is_rdcss r then begin
        rdcss_complete ctx (desc_of r);
        install ()
      end
      else if r = o2 then install () (* changed back between CAS and read *)
      else r
    end
  in
  install ()

(* Hook: a thread found a competing MCAS descriptor installed and is
   helping it complete — the contention signal of the lock-free protocol. *)
let help_event ctx d =
  let o = Ctx.obs ctx in
  if Mt_obs.Obs.enabled o then
    Mt_obs.Obs.emit o ~core:(Ctx.core ctx) ~time:(Ctx.now ctx)
      (Mt_obs.Obs.Kcas_help { addr = d })

let rec mcas_help ctx d =
  let n = Ctx.read ctx (d + 1) in
  let entry i = (Ctx.read ctx (d + 2 + (3 * i)), Ctx.read ctx (d + 3 + (3 * i))) in
  (* Phase 1: install the descriptor into every target via RDCSS, helping
     or deciding FAILED on a genuine value mismatch. *)
  let rec install i =
    if i >= n then ignore (Ctx.cas ctx d ~expected:undecided ~desired:succeeded)
    else begin
      let a, e = entry i in
      let r = rdcss ctx ~a1:d ~o1:undecided ~a2:a ~o2:e ~n2:(mcas_ptr d) in
      if r = e || r = mcas_ptr d then install (i + 1)
      else if is_mcas r then begin
        help_event ctx (desc_of r);
        ignore (mcas_help ctx (desc_of r));
        install i
      end
      else ignore (Ctx.cas ctx d ~expected:undecided ~desired:failed)
    end
  in
  if Ctx.read ctx d = undecided then install 0;
  (* Phase 2: resolve every slot according to the decision. *)
  let final = Ctx.read ctx d in
  for i = 0 to n - 1 do
    let a, e = entry i in
    let desired = if final = succeeded then Ctx.read ctx (d + 4 + (3 * i)) else e in
    ignore (Ctx.cas ctx a ~expected:(mcas_ptr d) ~desired)
  done;
  final = succeeded

let check_updates updates =
  if updates = [] then invalid_arg "Kcas.kcas: no updates";
  let addrs = List.map (fun u -> u.addr) updates in
  if List.length (List.sort_uniq compare addrs) <> List.length addrs then
    invalid_arg "Kcas.kcas: duplicate addresses"

let build_descriptor ctx updates =
  (* Sorted by address: the canonical deadlock/livelock avoidance. *)
  let updates = List.sort (fun u1 u2 -> compare u1.addr u2.addr) updates in
  let n = List.length updates in
  let d = Ctx.alloc ~label:"mcas-desc" ctx ~words:(2 + (3 * n)) in
  Ctx.write ctx d undecided;
  Ctx.write ctx (d + 1) n;
  List.iteri
    (fun i u ->
      Ctx.write ctx (d + 2 + (3 * i)) u.addr;
      Ctx.write ctx (d + 3 + (3 * i)) (enc u.expected);
      Ctx.write ctx (d + 4 + (3 * i)) (enc u.desired))
    updates;
  d

let kcas ctx updates =
  check_updates updates;
  mcas_help ctx (build_descriptor ctx updates)

let rec get ctx a =
  let w = Ctx.read ctx a in
  if is_rdcss w then begin
    rdcss_complete ctx (desc_of w);
    get ctx a
  end
  else if is_mcas w then begin
    help_event ctx (desc_of w);
    ignore (mcas_help ctx (desc_of w));
    get ctx a
  end
  else dec w

(* Single-word CAS on a kCAS-managed cell: the degenerate 1-CAS, without
   descriptor allocation. Helps any operation in progress, then decides on
   the plain value. *)
let cas ctx a ~expected ~desired =
  (* Helping rounds re-enter at the same attempt (they make progress);
     only a lost CAS race counts as a contention failure. *)
  let rec go attempt =
    let w = Ctx.read ctx a in
    if is_rdcss w then begin
      rdcss_complete ctx (desc_of w);
      go attempt
    end
    else if is_mcas w then begin
      help_event ctx (desc_of w);
      ignore (mcas_help ctx (desc_of w));
      go attempt
    end
    else if w <> enc expected then false
    else if Ctx.cas ctx a ~expected:w ~desired:(enc desired) then true
    else begin
      Ctx.cm_wait ~site:a ctx ~attempt;
      go (attempt + 1)
    end
  in
  go 0

(* Fail-fast front end: tag + compare all cells first. A clean mismatch is
   a local failure with zero writes; tag breakage means contention, so we
   just fall through to the robust path. *)
let kcas_tagged ctx updates =
  check_updates updates;
  let all_match =
    List.for_all
      (fun u -> Ctx.add_tag_read ctx u.addr ~words:1 = enc u.expected)
      updates
  in
  if (not all_match) && Ctx.validate ctx then begin
    (* Some cell definitely holds a non-expected value (it may be a
       descriptor in progress — then we are not sure, keep going). *)
    let descriptor_seen =
      List.exists
        (fun u ->
          let w = Ctx.read ctx u.addr in
          is_rdcss w || is_mcas w)
        updates
    in
    Ctx.clear_tag_set ctx;
    if descriptor_seen then kcas ctx updates else false
  end
  else begin
    Ctx.clear_tag_set ctx;
    kcas ctx updates
  end

(* Hooks: one event per snapshot attempt, one per failed validation, so
   scan/snapshot retry storms show up in abort breakdowns next to STM
   aborts and kCAS helping. *)
let snap_event ctx kind =
  let o = Ctx.obs ctx in
  if Mt_obs.Obs.enabled o then
    Mt_obs.Obs.emit o ~core:(Ctx.core ctx) ~time:(Ctx.now ctx) kind

(* The ceiling is read live before every attempt: the adversary's
   squeeze can lower it between two attempts, and a snapshot that no
   longer fits would otherwise fail every validate forever. *)
let snapshot ctx addrs =
  let cells = List.length addrs in
  let site = match addrs with a :: _ -> a | [] -> 0 in
  let rec attempt n =
    if cells > Mt_sim.Machine.max_tags (Ctx.machine ctx) then None
    else begin
      snap_event ctx (Mt_obs.Obs.Snap_attempt { cells });
      Ctx.clear_tag_set ctx;
      let values = List.map (fun a -> Ctx.add_tag_read ctx a ~words:1) addrs in
      if
        Ctx.validate ctx
        && List.for_all (fun w -> not (is_rdcss w || is_mcas w)) values
      then begin
        Ctx.clear_tag_set ctx;
        Some (List.map dec values)
      end
      else begin
        snap_event ctx (Mt_obs.Obs.Snap_invalid { cells });
        (* Help any operation we caught mid-flight, then retry. *)
        List.iter
          (fun w ->
            if is_rdcss w then rdcss_complete ctx (desc_of w)
            else if is_mcas w then ignore (mcas_help ctx (desc_of w)))
          values;
        Ctx.cm_wait ~site ctx ~attempt:n;
        attempt (n + 1)
      end
    end
  in
  attempt 0
