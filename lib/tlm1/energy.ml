(* The layer-1 fold of one table, over its energy per transition of
   every interface wire by dense Ec.Signals index
   (Power.Characterization.to_array).  The interpreter folds one cycle at
   a time; Compile.Eval prices k tables per plan class in its kernel,
   each lane with this fold's additions in this fold's order. *)

(* One signal group: the energy of the set bits of [bits] — wire
   [base + bit] — summed from 0.0, lowest bit first, joins the cycle
   energy in [out.(0)]; returns the set-bit count. *)
let group pj (out : float array) base bits =
  if bits = 0 then 0
  else begin
    let rest = ref bits and n = ref 0 and s = ref 0.0 in
    while !rest <> 0 do
      let low = !rest land - !rest in
      s := !s +. Array.unsafe_get pj (base + Sim.Bits.popcount (low - 1));
      rest := !rest lxor low;
      incr n
    done;
    Array.unsafe_set out 0 (Array.unsafe_get out 0 +. !s);
    !n
  end

let be_base = Ec.Signals.index (Ec.Signals.Be 0)
let wdata_base = Ec.Signals.index (Ec.Signals.Wdata 0)
let rdata_base = Ec.Signals.index (Ec.Signals.Rdata 0)
let ctrl_base = Ec.Signals.index (Ec.Signals.Ctrl Ec.Signals.Avalid)

(* Groups add left to right in addr/be/wdata/rdata/ctrl order; a quiet
   group adds nothing, which equals adding its 0.0 sum.  The one check
   keeps every unchecked access above inside [pj] and [out]. *)
let fold pj out ~addr ~be ~wdata ~rdata ~ctrl =
  if
    Array.length pj < Ec.Signals.count
    || Array.length out < 1
    || (addr lsr Ec.Signals.addr_wires)
       lor (be lsr Ec.Signals.be_wires)
       lor (wdata lsr Ec.Signals.data_wires)
       lor (rdata lsr Ec.Signals.data_wires)
       lor (ctrl lsr Ec.Signals.ctrl_count)
       <> 0
  then invalid_arg "Tlm1.Energy.fold";
  Array.unsafe_set out 0 0.0;
  let n = group pj out 0 addr in
  let n = n + group pj out be_base be in
  let n = n + group pj out wdata_base wdata in
  let n = n + group pj out rdata_base rdata in
  n + group pj out ctrl_base ctrl

type t = {
  pj : float array;  (* the table's energy per wire *)
  meter : Power.Meter.t;
  (* The meter's unboxed in-cycle accumulator and the cycle's folded
     energy: mutable float fields or cross-module float calls would box
     on every store in the per-cycle path. *)
  meter_acc : float array;
  cycle_pj : float array;
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
  t.transitions <-
    t.transitions + fold t.pj t.cycle_pj ~addr ~be ~wdata ~rdata ~ctrl;
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
