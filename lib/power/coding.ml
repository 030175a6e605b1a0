let popcount = Sim.Bits.popcount

let transitions ~width values =
  let mask = (1 lsl width) - 1 in
  let total = ref 0 and prev = ref 0 in
  Array.iter
    (fun v ->
      let v = v land mask in
      total := !total + popcount (!prev lxor v);
      prev := v)
    values;
  !total

let bus_invert ~width values =
  let mask = (1 lsl width) - 1 in
  let total = ref 0 and inversions = ref 0 in
  let prev_wires = ref 0 and prev_invert = ref 0 in
  Array.iter
    (fun v ->
      let v = v land mask in
      let plain = popcount (!prev_wires lxor v) in
      let inverted = popcount (!prev_wires lxor (lnot v land mask)) in
      let wires, invert =
        if inverted < plain then (lnot v land mask, 1) else (v, 0)
      in
      if invert = 1 then incr inversions;
      total :=
        !total
        + popcount (!prev_wires lxor wires)
        + abs (invert - !prev_invert);
      prev_wires := wires;
      prev_invert := invert)
    values;
  (!total, !inversions)

let gray_encode v = v lxor (v lsr 1)

let gray_decode g =
  let rec loop v shift =
    let s = v lsr shift in
    if s = 0 then v else loop (v lxor s) (shift * 2)
  in
  loop g 1

let gray_transitions ~width values =
  transitions ~width (Array.map gray_encode values)

type report = {
  plain : int;
  bus_inverted : int;
  gray : int;
  bus_invert_savings_pct : float;
  gray_savings_pct : float;
}

let analyze ~width values =
  if Array.length values = 0 then invalid_arg "Power.Coding.analyze: empty";
  let plain = transitions ~width values in
  let bus_inverted, _ = bus_invert ~width values in
  let gray = gray_transitions ~width values in
  let savings coded =
    if plain = 0 then 0.0
    else float_of_int (plain - coded) /. float_of_int plain *. 100.0
  in
  {
    plain;
    bus_inverted;
    gray;
    bus_invert_savings_pct = savings bus_inverted;
    gray_savings_pct = savings gray;
  }
