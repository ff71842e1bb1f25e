type t = { addr : Ctx.addr }

let fast = 0
let slow = 1

let create machine =
  let addr = Mt_sim.Machine.alloc machine ~words:1 in
  Mt_sim.Machine.poke machine addr fast;
  { addr }

let addr t = t.addr

let is_fast ctx t = Ctx.read ctx t.addr = fast

let set_slow ctx t = Ctx.write ctx t.addr slow

let set_fast ctx t = Ctx.write ctx t.addr fast
