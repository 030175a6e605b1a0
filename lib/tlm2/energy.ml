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

(* Per lane: the first beat against an unknown bus state, then the exact
   Hamming distances between consecutive beats of the burst, in beat
   order.  The toggle sum stays in a register; the operands are checked
   once, so the lane loop reads unchecked. *)
let data_lumps ln ~read ~burst ~pops ~off (out : float array) =
  let k = Array.length ln.addr_lump in
  if Array.length out < k || off < 0 || off + burst - 1 > Array.length pops
  then invalid_arg "Tlm2.Energy.data_lumps";
  let fburst = float_of_int burst
  (* BFirst and BLast pulses on bursts. *)
  and bursts = if burst > 1 then 4.0 else 0.0 in
  let avg_bit = if read then ln.avg_rdata else ln.avg_wdata in
  for l = 0 to k - 1 do
    let toggles = ref (Array.unsafe_get ln.boundary_data_toggles l) in
    for j = 0 to burst - 2 do
      toggles := !toggles +. float_of_int (Array.unsafe_get pops (off + j))
    done;
    let strobes =
      (Array.unsafe_get ln.strobe_pulses_per_beat l *. fburst) +. bursts
    in
    Array.unsafe_set out l
      ((!toggles *. Array.unsafe_get avg_bit l)
      +. (strobes *. Array.unsafe_get ln.avg_ctrl l))
  done

(* What the trace compiler needs to replay a lump stream: which phase
   finished on which transaction, and where the cycle boundaries fall.
   The data phase is tapped while the transaction's data is live, so the
   observer can take exact inter-beat Hamming distances. *)
type event = Addr_lump of Ec.Txn.t | Data_lump of Ec.Txn.t | Cycle

type t = {
  table : Power.Characterization.t;
  mutable lane : lanes;  (* one lane: this model's point *)
  created_lane : lanes;  (* what [reset] restores after calibration *)
  meter : Power.Meter.t;
  pops : int array;  (* inter-beat toggle counts; bursts are 1 or 4 beats *)
  lump : float array;  (* the last data lump, unboxed *)
  mutable observer : (event -> unit) option;
  mutable lumps : int;  (* phase lumps estimated: the model's work count *)
}

let create ?(record_profile = false) ?(params = default_params) table =
  let ln = lanes [| (table, params) |] in
  {
    table;
    lane = ln;
    created_lane = ln;
    meter = Power.Meter.create ~record_profile ();
    pops = Array.make 3 0;
    lump = Array.make 1 0.0;
    observer = None;
    lumps = 0;
  }

let set_params t params = t.lane <- lanes [| (t.table, params) |]
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
  let pj = t.lane.addr_lump.(0) in
  Power.Meter.add t.meter pj;
  pj

let data_phase_pj t (txn : Ec.Txn.t) =
  observe t (Data_lump txn);
  t.lumps <- t.lumps + 1;
  let burst = txn.Ec.Txn.burst and data = txn.Ec.Txn.data in
  for i = 1 to burst - 1 do
    t.pops.(i - 1) <- Sim.Bits.popcount (data.(i) lxor data.(i - 1))
  done;
  let read =
    match txn.Ec.Txn.dir with Ec.Txn.Read -> true | Ec.Txn.Write -> false
  in
  data_lumps t.lane ~read ~burst ~pops:t.pops ~off:0 t.lump;
  let pj = t.lump.(0) in
  Power.Meter.add t.meter pj;
  pj

let end_cycle t =
  observe t Cycle;
  Power.Meter.end_cycle t.meter
let total_pj t = Power.Meter.total_pj t.meter
let meter t = t.meter
let lumps t = t.lumps
