type params = {
  boundary_addr_toggles : float;
  boundary_data_toggles : float;
  attr_toggles : float;
  strobe_pulses_per_phase : float;
  strobe_pulses_per_beat : float;
}

(* Calibrated on the verification suite against the gate-level reference;
   see EXPERIMENTS.md.  The boundary toggles are characterized averages of
   real (locality-heavy) traffic, not the uniform-random worst case. *)
let default_params =
  {
    boundary_addr_toggles = 3.7;
    boundary_data_toggles = 14.2;
    attr_toggles = 0.5;
    strobe_pulses_per_phase = 2.0;
    strobe_pulses_per_beat = 1.5;
  }

(* What the trace compiler needs to replay a lump stream: which phase
   finished on which transaction, and where the cycle boundaries fall.
   The data phase is tapped while the transaction's data is live, so the
   observer can take exact inter-beat Hamming distances. *)
type event = Addr_lump of Ec.Txn.t | Data_lump of Ec.Txn.t | Cycle

type t = {
  mutable p : params;
  created_params : params;  (* what [reset] restores after calibration *)
  table : Power.Characterization.t;
  avg_addr : float;
  avg_wdata : float;
  avg_rdata : float;
  avg_be : float;
  avg_ctrl : float;
  meter : Power.Meter.t;
  mutable observer : (event -> unit) option;
  mutable lumps : int;  (* phase lumps estimated: the model's work count *)
}

let create ?(record_profile = false) ?(params = default_params) table =
  {
    p = params;
    created_params = params;
    table;
    avg_addr = Power.Characterization.avg_addr_bit table;
    avg_wdata = Power.Characterization.avg_wdata_bit table;
    avg_rdata = Power.Characterization.avg_rdata_bit table;
    avg_be = Power.Characterization.avg_be_bit table;
    avg_ctrl = Power.Characterization.avg_ctrl_bit table;
    meter = Power.Meter.create ~record_profile ();
    observer = None;
    lumps = 0;
  }

let set_params t params = t.p <- params
let set_observer t f = t.observer <- Some f
let clear_observer t = t.observer <- None

let observe t ev =
  match t.observer with None -> () | Some f -> f ev

let reset t =
  t.p <- t.created_params;
  t.observer <- None;
  t.lumps <- 0;
  Power.Meter.reset t.meter

let address_phase_pj t (txn : Ec.Txn.t) =
  observe t (Addr_lump txn);
  t.lumps <- t.lumps + 1;
  let p = t.p in
  let pj =
    (p.boundary_addr_toggles *. t.avg_addr)
    +. (p.attr_toggles *. t.avg_be)
    (* Instr, Write, Burst attribute wires. *)
    +. (3.0 *. p.attr_toggles *. t.avg_ctrl)
    (* AValid and ARdy handshake pulses. *)
    +. (2.0 *. p.strobe_pulses_per_phase *. t.avg_ctrl)
  in
  ignore txn;
  Power.Meter.add t.meter pj;
  pj

let data_phase_pj t (txn : Ec.Txn.t) =
  observe t (Data_lump txn);
  t.lumps <- t.lumps + 1;
  let p = t.p in
  let avg_bit =
    match txn.Ec.Txn.dir with
    | Ec.Txn.Read -> t.avg_rdata
    | Ec.Txn.Write -> t.avg_wdata
  in
  (* First beat against an unknown bus state, then exact Hamming distances
     between consecutive beats of the burst (data is available by
     pointer). *)
  let toggles = ref p.boundary_data_toggles in
  for i = 1 to txn.Ec.Txn.burst - 1 do
    toggles :=
      !toggles
      +. float_of_int
           (Sim.Bits.popcount
              (txn.Ec.Txn.data.(i) lxor txn.Ec.Txn.data.(i - 1)))
  done;
  let strobes =
    p.strobe_pulses_per_beat *. float_of_int txn.Ec.Txn.burst
    +. (if txn.Ec.Txn.burst > 1 then 4.0 else 0.0)
    (* BFirst and BLast pulses on bursts. *)
  in
  let pj = (!toggles *. avg_bit) +. (strobes *. t.avg_ctrl) in
  Power.Meter.add t.meter pj;
  pj

let end_cycle t =
  observe t Cycle;
  Power.Meter.end_cycle t.meter
let total_pj t = Power.Meter.total_pj t.meter
let meter t = t.meter
let lumps t = t.lumps
