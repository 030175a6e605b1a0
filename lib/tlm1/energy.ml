(* The layer-1 fold of one table, over its energy per transition of
   every interface wire by dense Ec.Signals index
   (Power.Characterization.to_array).  Each cycle's five toggle words
   are priced by the lane kernel (lane_kernel.c) at one lane; plan folds
   price their recorded segment tables in the same file, with the same
   additions in the same order. *)

(* [price ws pj e k] prices each class of [ws] (six words) under the
   wire-major lane energies [pj] (wire [w] of lane [l] at [w * k + l])
   into [e] (class [c] of lane [l] at [c * k + l]); it returns 0, or a
   nonzero status for an array shorter than its counts or a word wider
   than its group, refused before anything is read past. *)
external price : int array -> float array -> float array -> int -> int
  = "lane_price_l1"
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
  (* The meter's unboxed in-cycle accumulator and the cycle's folded
     energy: mutable float fields or cross-module float calls would box
     on every store in the per-cycle path. *)
  meter_acc : float array;
  cycle_pj : float array;
  (* The cycle's one class: five toggle words and an unread select
     word, filled in place every cycle. *)
  cycle_words : int array;
  mutable transitions : int;
  (* Signal-group words compared per [end_cycle]: the model's work count. *)
  mutable words : int;
}

let create ?(record_profile = false) table =
  let meter = Power.Meter.create ~record_profile () in
  {
    pj = Power.Characterization.to_array table;
    meter;
    meter_acc = Power.Meter.in_cycle_acc meter;
    cycle_pj = Array.make 1 0.0;
    cycle_words = Array.make 6 0;
    transitions = 0;
    words = 0;
  }

(* Only the five interface groups count: the controller's select lines
   are internal nets, invisible at this layer. *)
let end_cycle t (w : Rtl.Wires.t) =
  let addr = w.Rtl.Wires.addr lxor w.Rtl.Wires.addr_next
  and be = w.Rtl.Wires.be lxor w.Rtl.Wires.be_next
  and wdata = w.Rtl.Wires.wdata lxor w.Rtl.Wires.wdata_next
  and rdata = w.Rtl.Wires.rdata lxor w.Rtl.Wires.rdata_next
  and ctrl = w.Rtl.Wires.ctrl lxor w.Rtl.Wires.ctrl_next in
  let d = t.cycle_words in
  Array.unsafe_set d 0 addr;
  Array.unsafe_set d 1 be;
  Array.unsafe_set d 2 wdata;
  Array.unsafe_set d 3 rdata;
  Array.unsafe_set d 4 ctrl;
  if price d t.pj t.cycle_pj 1 <> 0 then invalid_arg "Tlm1.Energy.end_cycle";
  t.transitions <-
    t.transitions + Sim.Bits.popcount addr + Sim.Bits.popcount be
    + Sim.Bits.popcount wdata + Sim.Bits.popcount rdata
    + Sim.Bits.popcount ctrl;
  Array.unsafe_set t.meter_acc 0
    (Array.unsafe_get t.meter_acc 0 +. Array.unsafe_get t.cycle_pj 0);
  t.words <- t.words + 5;
  Power.Meter.end_cycle t.meter;
  Rtl.Wires.commit_all w

let reset t =
  t.transitions <- 0;
  t.words <- 0;
  Power.Meter.reset t.meter

let total_pj t = Power.Meter.total_pj t.meter
let meter t = t.meter
let transitions_total t = t.transitions
let transition_words t = t.words
