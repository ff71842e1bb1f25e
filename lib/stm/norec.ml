include Norec_core.Make (struct
  let name = "norec"
  let tagged = false
end)
