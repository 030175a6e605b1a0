(* The layer-2 energy model (energy.mli).  Address lumps are one float per
   lane, computed with the lanes; data lumps are priced by the lane kernel
   (lib/power/lane_kernel.c), whose class pricer plan folds run over k
   lanes and whose one-lump entry the interpreter below runs on each data
   phase: one lump formula, one order of IEEE operations, for both. *)

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

(* The layer-2 lanes: k points' lump operands, one float array per
   operand, lane [l] at index [l].  The address lump does not depend on
   the transaction, so it is computed once per lane. *)
type lanes = {
  addr_lump : float array;
  boundary_data_toggles : float array;
  strobe_pulses_per_beat : float array;
  avg_rdata : float array;
  avg_wdata : float array;
  avg_ctrl : float array;
}

let lanes points =
  let per f = Array.map (fun (table, params) -> f table params) points in
  let open Power.Characterization in
  {
    addr_lump =
      per (fun table params ->
          let avg_ctrl = avg_ctrl_bit table in
          (params.boundary_addr_toggles *. avg_addr_bit table)
          +. (params.attr_toggles *. avg_be_bit table)
          (* Instr, Write, Burst attribute wires. *)
          +. (3.0 *. params.attr_toggles *. avg_ctrl)
          (* AValid and ARdy handshake pulses. *)
          +. (2.0 *. params.strobe_pulses_per_phase *. avg_ctrl));
    boundary_data_toggles = per (fun _ params -> params.boundary_data_toggles);
    strobe_pulses_per_beat =
      per (fun _ params -> params.strobe_pulses_per_beat);
    avg_rdata = per (fun table _ -> avg_rdata_bit table);
    avg_wdata = per (fun table _ -> avg_wdata_bit table);
    avg_ctrl = per (fun table _ -> avg_ctrl_bit table);
  }

(* The lane kernel's one-lump entry (lib/power/lane_kernel.c), the
   interpreter's data lump: [data_lump ln dir burst data] prices one data
   phase, read ([dir] 0) or write, over the [burst] words of [data],
   under the one lane [ln] (its six operands in the field order of
   [lanes]) — the lane's boundary toggles plus the inter-beat counts in
   beat order, times the data-bit average, plus the strobe pulses times
   the control-bit average, added onto 0.0: the data lump that the
   kernel's class pricer adds for a plan fold, the same IEEE operations in
   the same order.  NaN if it refused the burst or the lane before
   reading past either. *)
external data_lump :
  float array -> int -> int -> int array -> (float[@unboxed])
  = "lane_data_lump_byte" "lane_data_lump"
[@@noalloc]

(* What the trace compiler needs to replay a lump stream: which phase
   finished on which transaction, and where the cycle boundaries fall.
   The data phase is tapped while the transaction's data is live, so the
   observer can take exact inter-beat Hamming distances. *)
type event = Addr_lump of Ec.Txn.t | Data_lump of Ec.Txn.t | Cycle

type t = {
  table : Power.Characterization.t;
  mutable lane : float array;
      (* this model's point: its one lane's operands in the field order
         of [lanes] *)
  created_lane : float array;  (* what [reset] restores after calibration *)
  meter : Power.Meter.t;
  mutable observer : (event -> unit) option;
  mutable lumps : int;  (* phase lumps estimated: the model's work count *)
}

let one_lane table params =
  let ln = lanes [| (table, params) |] in
  [| ln.addr_lump.(0); ln.boundary_data_toggles.(0);
     ln.strobe_pulses_per_beat.(0); ln.avg_rdata.(0); ln.avg_wdata.(0);
     ln.avg_ctrl.(0) |]

let create ?(record_profile = false) ?(params = default_params) table =
  let ln = one_lane table params in
  {
    table;
    lane = ln;
    created_lane = ln;
    meter = Power.Meter.create ~record_profile ();
    observer = None;
    lumps = 0;
  }

let set_params t params = t.lane <- one_lane t.table params
let set_observer t f = t.observer <- f

let observe t ev =
  match t.observer with None -> () | Some f -> f ev

let reset t =
  t.lane <- t.created_lane;
  t.observer <- None;
  t.lumps <- 0;
  Power.Meter.reset t.meter

let address_phase_pj t (txn : Ec.Txn.t) =
  observe t (Addr_lump txn);
  t.lumps <- t.lumps + 1;
  let pj = t.lane.(0) in
  Power.Meter.add t.meter pj;
  pj

let data_phase_pj t (txn : Ec.Txn.t) =
  observe t (Data_lump txn);
  t.lumps <- t.lumps + 1;
  let burst = txn.Ec.Txn.burst and data = txn.Ec.Txn.data in
  if burst < 1 || burst > Array.length data then
    invalid_arg "Tlm2.Energy.data_phase_pj: burst out of range";
  let dir = match txn.Ec.Txn.dir with Ec.Txn.Read -> 0 | Ec.Txn.Write -> 1 in
  let pj = data_lump t.lane dir burst data in
  Power.Meter.add t.meter pj;
  pj

let end_cycle t =
  observe t Cycle;
  Power.Meter.end_cycle t.meter
let total_pj t = Power.Meter.total_pj t.meter
let meter t = t.meter
let lumps t = t.lumps
