type t = Hier.Level.t = Rtl | L1 | L2 | L3

let timed = Hier.Level.timed
let to_string = Hier.Level.to_string
let pp = Hier.Level.pp
