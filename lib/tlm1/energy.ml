(* The layer-1 fold of one table, over its energy per transition of
   every interface wire by dense Ec.Signals index
   (Power.Characterization.to_array).  Each cycle is one call of the lane
   kernel's layer-1 close (lane_kernel.c); plan folds price their
   recorded segment tables in the same file, with the same additions in
   the same order. *)

(* [close w pj m c] prices the cycle of the wires [w] under the
   per-wire energies [pj] onto the meter's in-cycle energy [m.(0)],
   counts its transitions into [c.(0)] and its five words into [c.(1)],
   and commits the wires; it returns 0, or a nonzero status for a short
   array or a word wider than its group, refused before anything is
   read past or written.  It reads [Rtl.Wires.t] by field position. *)
external close : Rtl.Wires.t -> float array -> float array -> int array -> int
  = "lane_close_l1"
[@@noalloc]

(* The kernel's group widths are Ec.Signals'. *)
let () =
  if
    Ec.Signals.
      [ addr_wires; be_wires; data_wires; data_wires; ctrl_count; count ]
    <> [ 34; 4; 32; 32; 11; 113 ]
  then failwith "Tlm1.Energy: signal groups differ from lane_kernel.c"

type t = {
  pj : float array;  (* the table's energy per wire *)
  meter : Power.Meter.t;
  (* The meter's unboxed in-cycle accumulator: a cross-module float call
     would box on every cycle. *)
  meter_acc : float array;
  (* The transitions, then the signal-group words compared: the model's
     work count. *)
  counts : int array;
}

let create ?(record_profile = false) table =
  let meter = Power.Meter.create ~record_profile () in
  {
    pj = Power.Characterization.to_array table;
    meter;
    meter_acc = Power.Meter.in_cycle_acc meter;
    counts = Array.make 2 0;
  }

(* Only the five interface groups count: the controller's select lines
   are internal nets, invisible at this layer. *)
let end_cycle t w =
  if close w t.pj t.meter_acc t.counts <> 0 then
    invalid_arg "Tlm1.Energy.end_cycle";
  Power.Meter.end_cycle t.meter

let reset t =
  Array.fill t.counts 0 2 0;
  Power.Meter.reset t.meter

let total_pj t = Power.Meter.total_pj t.meter
let meter t = t.meter
let transitions_total t = t.counts.(0)
let transition_words t = t.counts.(1)
