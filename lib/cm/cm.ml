(* Contention-management policies (DESIGN §14). Pure wait computation +
   per-core private state; charging the cycles and emitting Obs events is
   the caller's job (Mt_core.Ctx), so this layer depends only on the
   simulator's PRNG and stays usable from any level of the stack.

   Determinism: [Immediate] touches nothing — no PRNG draw, no state —
   so a run under the default policy is byte-identical to a build that
   never heard of this module. Backoff jitter comes only from the
   instance's private stream (split off the context's PRNG by Harness,
   and only when the policy actually needs it). Politeness derives waits
   purely from (core, now). *)

type spec =
  | Immediate
  | Backoff of { base : int; cap : int }
  | Politeness of { slot : int; slots : int }

let default_base = 32
let default_cap = 4096
let default_slot = 192
let default_slots = 8

let immediate = Immediate

let backoff ?(base = default_base) ?(cap = default_cap) () =
  if base <= 0 || cap < base then invalid_arg "Cm.backoff: need cap >= base > 0";
  Backoff { base; cap }

let politeness ?(slot = default_slot) ?(slots = default_slots) () =
  if slot <= 0 || slots <= 0 then invalid_arg "Cm.politeness: need slot, slots > 0";
  Politeness { slot; slots }

let spec_name = function
  | Immediate -> "immediate"
  | Backoff _ -> "backoff"
  | Politeness _ -> "politeness"

(* min cap (base * 2^attempt) without overflow: base <= cap asr attempt
   iff base * 2^attempt <= cap (integer division truncates downward, and
   both sides are non-negative), so the shift only runs when it cannot
   wrap, and the result is exact for every attempt. *)
let capped_backoff ~base ~cap ~attempt =
  if base <= 0 || cap <= 0 then 0
  else if attempt >= 62 then cap
  else if base > cap asr attempt then cap
  else base lsl attempt

type t = { spec : spec; core : int; prng : Mt_sim.Prng.t option }

let make ?prng spec ~core = { spec; core; prng }
let spec t = t.spec
let is_immediate t = match t.spec with Immediate -> true | _ -> false

(* Half jitter: wait in [b/2, b] so contenders spread without ever
   collapsing to an immediate retry. Without a private stream the wait
   is the deterministic upper bound. *)
let backoff_wait t ~base ~cap ~attempt =
  let b = capped_backoff ~base ~cap ~attempt in
  if b <= 1 then b
  else
    match t.prng with
    | None -> b
    | Some g ->
        let lo = b / 2 in
        lo + Mt_sim.Prng.int g (b - lo + 1)

(* Wait until this core's next slot opens; retry immediately while inside
   our own slot. Pure function of (core, now) — byte-identical across
   --jobs because [now] is simulated time. *)
let politeness_wait t ~slot ~slots ~now =
  let period = slot * slots in
  let mine = t.core mod slots * slot in
  let pos = now mod period in
  let w = (mine - pos + period) mod period in
  if w = 0 || w > period - slot then 0 else w

let wait t ~attempt ~now =
  match t.spec with
  | Immediate -> 0
  | Backoff { base; cap } -> backoff_wait t ~base ~cap ~attempt:(min attempt 20)
  | Politeness { slot; slots } -> politeness_wait t ~slot ~slots ~now
