let bits = 31
let limit = 1 lsl bits
let mask = limit - 1
let fits v = v land lnot mask = 0
let low w = w land mask
let high w = w lsr bits
let pack lo hi = lo lor (hi lsl bits)
