(* The one NOrec implementation behind {!Norec} and {!Norec_tagged}.

   NOrec's protocol (Dalessandro, Spear, Scott — PPoPP 2010): a single
   global sequence lock, an indexed write buffer, and value-based
   validation (VBV) of the read set whenever the lock has moved. Tagged
   NOrec (paper Section 5.2) runs the same protocol with the read set also
   tracked by MemTags, and drops back to VBV for the rest of an attempt
   when its tag set breaks. The untagged instance is that code with the
   tag fast path never armed: [tx.tagged] starts false, so every read,
   validation and commit takes the VBV path, and no tag-set operation is
   ever issued. *)

open Mt_core

type addr = Ctx.addr

module Make (V : sig
  val name : string

  (* Whether attempts start on the tag fast path. *)
  val tagged : bool
end) : Stm_intf.S = struct
  exception Abort = Stm_intf.Abort

  type t = {
    seqlock : addr;
    mutable commits : int;
    mutable aborts : int;
    mutable vbv_passes : int;
  }

  type tx = {
    ctx : Ctx.t;
    stm : t;
    mutable snapshot : int;             (* V: last known-consistent even time *)
    mutable tagged : bool;              (* fast path: read set tracked by tags *)
    mutable reads : (addr * int) list;  (* read set, newest first; kept for VBV *)
    writes : (addr, int) Hashtbl.t;     (* write buffer *)
    mutable write_log : addr list;      (* write-back order (reversed) *)
  }

  let name = V.name

  (* Hook: record the abort (with its cause) on the aborting core's trace
     track; free when tracing is off. *)
  let abort_event ctx reason =
    let o = Ctx.obs ctx in
    if Mt_obs.Obs.enabled o then
      Mt_obs.Obs.emit o ~core:(Ctx.core ctx) ~time:(Ctx.now ctx)
        (Mt_obs.Obs.Stm_abort { impl = name; reason })

  let create ctx =
    let seqlock = Ctx.alloc ~label:(name ^ "-seqlock") ctx ~words:1 in
    { seqlock; commits = 0; aborts = 0; vbv_passes = 0 }

  let commits t = t.commits
  let aborts t = t.aborts
  let vbv_passes t = t.vbv_passes

  let reset_stats t =
    t.commits <- 0;
    t.aborts <- 0;
    t.vbv_passes <- 0

  (* Spin until the lock is free (even) and return the sequence number. *)
  let rec read_sequence tx =
    let v = Ctx.read tx.ctx tx.stm.seqlock in
    if v land 1 = 1 then begin
      Ctx.work tx.ctx 2;
      read_sequence tx
    end
    else v

  (* Value-based validation: raises Abort if the read set is inconsistent;
     otherwise updates the snapshot and returns it. *)
  let rec validate_vbv tx =
    let time = read_sequence tx in
    tx.stm.vbv_passes <- tx.stm.vbv_passes + 1;
    let consistent = List.for_all (fun (a, v) -> Ctx.read tx.ctx a = v) tx.reads in
    if not consistent then begin
      abort_event tx.ctx "vbv-inconsistent";
      raise Abort
    end
    else if Ctx.read tx.ctx tx.stm.seqlock = time then begin
      tx.snapshot <- time;
      time
    end
    else validate_vbv tx

  (* Drop to the untagged slow path for the rest of this attempt. *)
  let demote tx =
    tx.tagged <- false;
    let o = Ctx.obs tx.ctx in
    if Mt_obs.Obs.enabled o then
      Mt_obs.Obs.emit o ~core:(Ctx.core tx.ctx) ~time:(Ctx.now tx.ctx) Mt_obs.Obs.Stm_demote;
    Ctx.clear_tag_set tx.ctx

  (* Fast revalidation after the tag set broke locally: re-tag the sequence
     lock at its current (even) value and check whether the data tags are
     still intact. If so the whole read set is known consistent *by tags*,
     with no value re-reads — the paper's replacement for VBV. Returns false
     after demoting (caller must go through validate_vbv / slow path). *)
  let rec fast_revalidate tx =
    Ctx.remove_tag tx.ctx tx.stm.seqlock ~words:1;
    let v = Ctx.add_tag_read tx.ctx tx.stm.seqlock ~words:1 in
    if v land 1 = 1 then begin
      Ctx.work tx.ctx 2;
      fast_revalidate tx
    end
    else if Ctx.validate tx.ctx then begin
      tx.snapshot <- v;
      true
    end
    else begin
      demote tx;
      false
    end

  (* NOrec's read: re-check the sequence lock after the load; when it
     moved, validate by value and load again. *)
  let slow_read tx a =
    let v = ref (Ctx.read tx.ctx a) in
    while Ctx.read tx.ctx tx.stm.seqlock <> tx.snapshot do
      let (_ : int) = validate_vbv tx in
      v := Ctx.read tx.ctx a
    done;
    tx.reads <- (a, !v) :: tx.reads;
    !v

  let read tx a =
    match Hashtbl.find_opt tx.writes a with
    | Some v -> v
    | None ->
        if tx.tagged then begin
          (* Tagged load; post-read validation is a free local check. *)
          let v = Ctx.add_tag_read tx.ctx a ~words:1 in
          if Ctx.validate tx.ctx || fast_revalidate tx then begin
            tx.reads <- (a, v) :: tx.reads;
            v
          end
          else begin
            (* Demoted: establish consistency by value, then re-read. *)
            let (_ : int) = validate_vbv tx in
            slow_read tx a
          end
        end
        else slow_read tx a

  let ctx tx = tx.ctx

  let write tx a v =
    if not (Hashtbl.mem tx.writes a) then tx.write_log <- a :: tx.write_log;
    Hashtbl.replace tx.writes a v

  (* Acquire the sequence lock at our snapshot, validating on conflict. *)
  let rec acquire_slow tx =
    if
      not
        (Ctx.cas tx.ctx tx.stm.seqlock ~expected:tx.snapshot ~desired:(tx.snapshot + 1))
    then begin
      let (_ : int) = validate_vbv tx in
      acquire_slow tx
    end

  (* Acquire the lock on the fast path: a VAS whose tag set covers the lock
     and the whole read set — one atomic step that both validates the reads
     and takes the lock, failing locally on conflict. *)
  let rec acquire_fast tx =
    if Ctx.vas tx.ctx tx.stm.seqlock (tx.snapshot + 1) then ()
    else if fast_revalidate tx then acquire_fast tx
    else begin
      let (_ : int) = validate_vbv tx in
      acquire_slow tx
    end

  let commit tx =
    if Hashtbl.length tx.writes = 0 then
      (* Read-only: the last successful validation (tag-based or VBV)
         already witnessed a consistent snapshot. *)
      ()
    else begin
      if tx.tagged then acquire_fast tx else acquire_slow tx;
      List.iter
        (fun a -> Ctx.write tx.ctx a (Hashtbl.find tx.writes a))
        (List.rev tx.write_log);
      Ctx.write tx.ctx tx.stm.seqlock (tx.snapshot + 2)
    end

  (* Tag-set housekeeping around an attempt; the untagged instance never
     holds a tag, so it issues none. *)
  let clear_tags ctx = if V.tagged then Ctx.clear_tag_set ctx

  (* TXBegin on the fast path: tag the sequence lock; a writer commit
     anywhere makes the next Validate fail locally, with no lock re-read in
     the meantime. *)
  let rec tagged_begin ctx stm =
    let v = Ctx.add_tag_read ctx stm.seqlock ~words:1 in
    if v land 1 = 1 then begin
      Ctx.work ctx 2;
      Ctx.clear_tag_set ctx;
      tagged_begin ctx stm
    end
    else v

  let atomically ctx stm body =
    let rec attempt n =
      clear_tags ctx;
      let tx =
        {
          ctx;
          stm;
          snapshot = 0;
          tagged = V.tagged;
          reads = [];
          writes = Hashtbl.create 16;
          write_log = [];
        }
      in
      tx.snapshot <- (if V.tagged then tagged_begin ctx stm else read_sequence tx);
      match
        let result = body tx in
        commit tx;
        result
      with
      | result ->
          clear_tags ctx;
          stm.commits <- stm.commits + 1;
          result
      | exception Abort ->
          clear_tags ctx;
          stm.aborts <- stm.aborts + 1;
          (* Historical site default: randomized doubling backoff (prevents
             lock-step retry livelock), 16 * 2^n capped at 2048. Runs only
             under the [immediate] policy; otherwise the contention layer
             computes the wait. *)
          Ctx.cm_wait_default ~site:stm.seqlock ctx ~attempt:n
            ~default:(fun () ->
              Mt_sim.Prng.int (Ctx.prng ctx) (min 2048 (16 lsl min n 7)));
          attempt (n + 1)
    in
    attempt 0
end
