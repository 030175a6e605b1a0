type t = Rtl | L1 | L2 | L3

let timed = [ Rtl; L1; L2 ]

let to_string = function
  | Rtl -> "gate-level"
  | L1 -> "TL layer 1"
  | L2 -> "TL layer 2"
  | L3 -> "TL layer 3"

let to_code = function Rtl -> 0 | L1 -> 1 | L2 -> 2 | L3 -> 3

let pp ppf t = Format.pp_print_string ppf (to_string t)
