(* The layer-1 lanes: every interface wire's energy per transition, for
   [k] characterization tables laid out wire-major — wire [w] (dense
   Ec.Signals.index) of lane [l] at [w * k + l], so one toggled wire's k
   energies sit side by side.  The interpreter folds one lane per cycle,
   Compile.Eval k lanes per plan row. *)
type lanes = {
  k : int;
  pj : float array;
  idx : int array;  (* scratch: one group's set wires, each times [k] *)
}

let lanes tables =
  let k = Array.length tables in
  let per j =
    Power.Characterization.energy_per_transition tables.(j mod k)
      (Ec.Signals.of_index (j / k))
  in
  {
    k;
    pj = Array.init (Ec.Signals.count * k) per;
    idx = Array.make Ec.Signals.addr_wires 0;
  }

(* One signal group: each lane sums the energy of the set bits of [bits]
   — wire [base + bit] — from 0.0, lowest bit first, and the sum joins
   that lane's cycle energy in [out]; returns the set-bit count.  The set
   bits are decoded once into [idx]; the lanes then sum in blocks of four,
   each block's sums in local float refs that ocamlopt keeps in
   registers, and a remainder loop takes the last [k mod 4] lanes.  One
   lane sums while decoding, without the index buffer. *)
let group ln (out : float array) base bits =
  if bits = 0 then 0
  else if ln.k = 1 then begin
    let pj = ln.pj and rest = ref bits and n = ref 0 and s = ref 0.0 in
    while !rest <> 0 do
      let low = !rest land - !rest in
      s := !s +. Array.unsafe_get pj (base + Sim.Bits.popcount (low - 1));
      rest := !rest lxor low;
      incr n
    done;
    Array.unsafe_set out 0 (Array.unsafe_get out 0 +. !s);
    !n
  end
  else begin
    let k = ln.k and pj = ln.pj and idx = ln.idx in
    let rest = ref bits and n = ref 0 in
    while !rest <> 0 do
      let low = !rest land - !rest in
      Array.unsafe_set idx !n ((base + Sim.Bits.popcount (low - 1)) * k);
      rest := !rest lxor low;
      incr n
    done;
    let n = !n and l = ref 0 in
    while !l + 4 <= k do
      let l0 = !l in
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      for i = 0 to n - 1 do
        let w = Array.unsafe_get idx i + l0 in
        s0 := !s0 +. Array.unsafe_get pj w;
        s1 := !s1 +. Array.unsafe_get pj (w + 1);
        s2 := !s2 +. Array.unsafe_get pj (w + 2);
        s3 := !s3 +. Array.unsafe_get pj (w + 3)
      done;
      Array.unsafe_set out l0 (Array.unsafe_get out l0 +. !s0);
      Array.unsafe_set out (l0 + 1) (Array.unsafe_get out (l0 + 1) +. !s1);
      Array.unsafe_set out (l0 + 2) (Array.unsafe_get out (l0 + 2) +. !s2);
      Array.unsafe_set out (l0 + 3) (Array.unsafe_get out (l0 + 3) +. !s3);
      l := l0 + 4
    done;
    for l = !l to k - 1 do
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        s := !s +. Array.unsafe_get pj (Array.unsafe_get idx i + l)
      done;
      Array.unsafe_set out l (Array.unsafe_get out l +. !s)
    done;
    n
  end

let be_base = Ec.Signals.index (Ec.Signals.Be 0)
let wdata_base = Ec.Signals.index (Ec.Signals.Wdata 0)
let rdata_base = Ec.Signals.index (Ec.Signals.Rdata 0)
let ctrl_base = Ec.Signals.index (Ec.Signals.Ctrl Ec.Signals.Avalid)

(* Groups add left to right in addr/be/wdata/rdata/ctrl order; a quiet
   group adds nothing, which equals adding its 0.0 sum.  The one check
   keeps every unchecked access above inside its group and lane. *)
let fold ln out ~addr ~be ~wdata ~rdata ~ctrl =
  if
    Array.length out < ln.k
    || (addr lsr Ec.Signals.addr_wires)
       lor (be lsr Ec.Signals.be_wires)
       lor (wdata lsr Ec.Signals.data_wires)
       lor (rdata lsr Ec.Signals.data_wires)
       lor (ctrl lsr Ec.Signals.ctrl_count)
       <> 0
  then invalid_arg "Tlm1.Energy.fold";
  for l = 0 to ln.k - 1 do
    Array.unsafe_set out l 0.0
  done;
  let n = group ln out 0 addr in
  let n = n + group ln out be_base be in
  let n = n + group ln out wdata_base wdata in
  let n = n + group ln out rdata_base rdata in
  n + group ln out ctrl_base ctrl

type t = {
  lane : lanes;  (* the one table's lane *)
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
    lane = lanes [| table |];
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
    t.transitions + fold t.lane t.cycle_pj ~addr ~be ~wdata ~rdata ~ctrl;
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
