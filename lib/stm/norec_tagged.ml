include Norec_core.Make (struct
  let name = "norec-tagged"
  let tagged = true
end)
