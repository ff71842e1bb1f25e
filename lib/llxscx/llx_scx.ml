open Mt_core

type addr = Ctx.addr

(* Data-record layout. *)
let info_off = 0
let marked_off = 1
let nfields_off = 2
let header_words = 3

(* SCX-record layout. *)
let state_off = 0
let allfrozen_off = 1
let fld_off = 2
let newv_off = 3
let oldv_off = 4
let nv_off = 5
let rmask_off = 6
let records_off = 7

(* SCX states. *)
let in_progress = 0
let committed = 1
let aborted = 2

(* Distinguished info value standing for "a committed dummy SCX-record".
   It is odd, so it can never collide with a line-aligned address. *)
let quiescent_info = 1

(* The payload starts right after the header with the mutable fields:
   field i at header + i. *)
let field_addr r i = r + header_words + i
let payload_addr r = r + header_words

let alloc_record ctx ~mutable_fields ~extra_words =
  if mutable_fields < 0 || extra_words < 0 then
    invalid_arg "Llx_scx.alloc_record";
  let r = Ctx.alloc ~label:"llxscx-record" ctx ~words:(header_words + mutable_fields + extra_words) in
  Ctx.write ctx (r + info_off) quiescent_info;
  Ctx.write ctx (r + nfields_off) mutable_fields;
  r

let init_field ctx r i v = Ctx.write ctx (field_addr r i) v

let state_of ctx info = if info = quiescent_info then committed else Ctx.read ctx (info + state_off)

type snapshot = { record : addr; info : int; fields : int array }

type llx_result = Snapshot of snapshot | Finalized | Fail

(* HELP (Brown-Ellen-Ruppert): drive the SCX-record [u] to completion.
   Returns true iff u commits. Any thread may help any u it encounters. *)
let help ctx u =
  let nv = Ctx.read ctx (u + nv_off) in
  let rec freeze i =
    if i >= nv then finish ()
    else begin
      let r = Ctx.read ctx (u + records_off + i) in
      let rinfo = Ctx.read ctx (u + records_off + nv + i) in
      if Ctx.cas ctx (r + info_off) ~expected:rinfo ~desired:u then freeze (i + 1)
      else if Ctx.read ctx (r + info_off) = u then freeze (i + 1)
      else if Ctx.read ctx (u + allfrozen_off) = 1 then true
      else begin
        (* The freeze failed and u is not fully frozen: abort it. *)
        Ctx.write ctx (u + state_off) aborted;
        false
      end
    end
  and finish () =
    Ctx.write ctx (u + allfrozen_off) 1;
    let rmask = Ctx.read ctx (u + rmask_off) in
    for i = 0 to nv - 1 do
      if rmask land (1 lsl i) <> 0 then begin
        let r = Ctx.read ctx (u + records_off + i) in
        Ctx.write ctx (r + marked_off) 1
      end
    done;
    let fld = Ctx.read ctx (u + fld_off) in
    let old_val = Ctx.read ctx (u + oldv_off) in
    let new_val = Ctx.read ctx (u + newv_off) in
    ignore (Ctx.cas ctx fld ~expected:old_val ~desired:new_val);
    Ctx.write ctx (u + state_off) committed;
    true
  in
  freeze 0

let nfields ctx r = Ctx.read ctx (r + nfields_off)

let llx ?fields ctx r =
  let rinfo = Ctx.read ctx (r + info_off) in
  let state = state_of ctx rinfo in
  (* The marked bit must be read AFTER the state: a finalizing SCX marks
     its records before committing, so observing (state = Committed,
     marked = 0) in this order proves the record was not finalized at the
     marked-read. Reading marked first admits a race where a snapshot of a
     just-finalized record is handed out. *)
  let marked1 = Ctx.read ctx (r + marked_off) in
  let snapshot_attempt () =
    if state = aborted || (state = committed && marked1 = 0) then begin
      let n =
        match fields with
        | None -> Ctx.read ctx (r + nfields_off)
        | Some n -> n
      in
      let fields = Array.make n 0 in
      for i = 0 to n - 1 do
        fields.(i) <- Ctx.read ctx (field_addr r i)
      done;
      if Ctx.read ctx (r + info_off) = rinfo then
        Some (Snapshot { record = r; info = rinfo; fields })
      else None
    end
    else None
  in
  match snapshot_attempt () with
  | Some result -> result
  | None ->
      let rinfo2 = Ctx.read ctx (r + info_off) in
      let state2 = state_of ctx rinfo2 in
      let frozen_by_commit =
        state2 = committed
        || (state2 = in_progress
           && rinfo2 <> quiescent_info
           && Ctx.read ctx (rinfo2 + allfrozen_off) = 1)
      in
      if frozen_by_commit && Ctx.read ctx (r + marked_off) = 1 then Finalized
      else begin
        if state2 = in_progress then ignore (help ctx rinfo2);
        Fail
      end

let vlx ctx snap = Ctx.read ctx (snap.record + info_off) = snap.info

let scx ctx ~v ~r ~fld ~old_val ~new_val =
  if v = [] then invalid_arg "Llx_scx.scx: empty V";
  if List.length v > 62 then invalid_arg "Llx_scx.scx: V too large";
  let nv = List.length v in
  let u = Ctx.alloc ~label:"scx-desc" ctx ~words:(records_off + (2 * nv)) in
  Ctx.write ctx (u + state_off) in_progress;
  Ctx.write ctx (u + allfrozen_off) 0;
  Ctx.write ctx (u + fld_off) fld;
  Ctx.write ctx (u + newv_off) new_val;
  Ctx.write ctx (u + oldv_off) old_val;
  Ctx.write ctx (u + nv_off) nv;
  let rmask = ref 0 in
  List.iteri
    (fun i snap ->
      Ctx.write ctx (u + records_off + i) snap.record;
      Ctx.write ctx (u + records_off + nv + i) snap.info;
      if List.mem snap.record r then rmask := !rmask lor (1 lsl i))
    v;
  (* Every finalized record must be in V. *)
  List.iter
    (fun fr ->
      if not (List.exists (fun snap -> snap.record = fr) v) then
        invalid_arg "Llx_scx.scx: R not a subset of V")
    r;
  Ctx.write ctx (u + rmask_off) !rmask;
  help ctx u

let is_marked_unsafe machine r = Mt_sim.Machine.peek machine (r + marked_off) = 1
