(* SWAR popcount over OCaml's 63-bit non-negative ints; inlined, as the
   estimators call it once per toggled bit. *)
let[@inline] popcount v =
  let v = v - ((v lsr 1) land 0x5555_5555_5555_5555) in
  let v = (v land 0x3333_3333_3333_3333) + ((v lsr 2) land 0x3333_3333_3333_3333) in
  let v = (v + (v lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (v * 0x0101_0101_0101_0101) lsr 56
