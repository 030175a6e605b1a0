(* Shared fixtures for the bus-model suites: a small three-slave system
   (fast RAM, slow EEPROM-like memory, read-only ROM) buildable at every
   abstraction level, plus run helpers. *)

type level = Rtl_l | L1_l | L2_l

let all_levels = [ Rtl_l; L1_l; L2_l ]

let level_name = function Rtl_l -> "rtl" | L1_l -> "l1" | L2_l -> "l2"

let fast_base = 0x0000
let slow_base = 0x1000
let rom_base = 0x2000

type t = {
  kernel : Sim.Kernel.t;
  port : Ec.Port.t;
  fast : Soc.Memory.t;
  slow : Soc.Memory.t;
  rom : Soc.Memory.t;
  iface : Iface.t;
  energy_pj : unit -> float;
  transitions : unit -> int;
  profile : unit -> Power.Profile.t option;
  rtl_bus : Rtl.Bus.t option;
  l1_bus : Tlm1.Bus.t option;
}

let build ?(rtl_params = Rtl.Params.default)
    ?(table = Power.Characterization.default) ?(record_profile = false) level =
  let kernel = Sim.Kernel.create () in
  let fast =
    Soc.Memory.create
      (Ec.Slave_cfg.make ~name:"fast" ~base:fast_base ~size:0x1000
         ~executable:true ())
  in
  let slow =
    Soc.Memory.create
      (Ec.Slave_cfg.make ~name:"slow" ~base:slow_base ~size:0x1000 ~addr_wait:1
         ~read_wait:2 ~write_wait:4 ())
  in
  let rom =
    Soc.Memory.create
      (Ec.Slave_cfg.make ~name:"rom" ~base:rom_base ~size:0x1000
         ~writable:false ~executable:true ())
  in
  let decoder =
    Ec.Decoder.create [ Soc.Memory.slave fast; Soc.Memory.slave slow; Soc.Memory.slave rom ]
  in
  match level with
  | Rtl_l ->
    let bus = Rtl.Bus.create ~kernel ~decoder ~params:rtl_params ~record_profile () in
    {
      kernel;
      port = Iface.port (Rtl.Bus.iface bus);
      fast;
      slow;
      rom;
      iface = Rtl.Bus.iface bus;
      energy_pj = (fun () -> Rtl.Diesel.total_pj (Rtl.Bus.diesel bus));
      transitions = (fun () -> Rtl.Diesel.transitions_total (Rtl.Bus.diesel bus));
      profile = (fun () -> Power.Meter.profile (Rtl.Diesel.meter (Rtl.Bus.diesel bus)));
      rtl_bus = Some bus;
      l1_bus = None;
    }
  | L1_l ->
    let energy = Tlm1.Energy.create ~record_profile table in
    let bus = Tlm1.Bus.create ~kernel ~decoder ~energy () in
    {
      kernel;
      port = Iface.port (Rtl.Bus.iface (Tlm1.Bus.engine bus));
      fast;
      slow;
      rom;
      iface = Rtl.Bus.iface (Tlm1.Bus.engine bus);
      energy_pj = (fun () -> Tlm1.Energy.total_pj energy);
      transitions = (fun () -> Tlm1.Energy.transitions_total energy);
      profile = (fun () -> Power.Meter.profile (Tlm1.Energy.meter energy));
      rtl_bus = None;
      l1_bus = Some bus;
    }
  | L2_l ->
    let energy = Tlm2.Energy.create ~record_profile table in
    let bus = Tlm2.Bus.create ~kernel ~decoder ~energy () in
    {
      kernel;
      port = Iface.port (Tlm2.Bus.iface bus);
      fast;
      slow;
      rom;
      iface = Tlm2.Bus.iface bus;
      energy_pj = (fun () -> Tlm2.Energy.total_pj energy);
      transitions = (fun () -> 0);
      profile = (fun () -> Power.Meter.profile (Tlm2.Energy.meter energy));
      rtl_bus = None;
      l1_bus = None;
    }

(* Submits one transaction and runs to completion; returns the number of
   cycles from submission to the cycle in which the bus completed it. *)
let run_one h txn =
  assert (h.port.Ec.Port.try_submit txn);
  let start = Sim.Kernel.now h.kernel in
  ignore
    (Sim.Kernel.run_until h.kernel ~max_cycles:10_000 (fun () ->
         Ec.Port.completed h.port txn.Ec.Txn.id));
  h.port.Ec.Port.retire txn.Ec.Txn.id;
  Sim.Kernel.now h.kernel - start

(* Replays a trace through a fresh harness; returns (harness, cycles). *)
let run_trace ?rtl_params ?table ?record_profile ?(mode = `Pipelined) level trace =
  let h = build ?rtl_params ?table ?record_profile level in
  let master = Soc.Trace_master.create ~kernel:h.kernel ~port:h.port ~mode trace in
  let cycles = Soc.Trace_master.run master ~kernel:h.kernel ~max_cycles:200_000 () in
  (h, cycles)

(* Drives the same trace through every level and returns results in
   [Rtl_l; L1_l; L2_l] order. *)
let run_all_levels ?mode trace =
  List.map (fun level -> run_trace ?mode level trace) all_levels

let ids = Ec.Txn.Id_gen.create ()
let fresh () = Ec.Txn.Id_gen.fresh ids

let read ?(kind = Ec.Txn.Data) ?(width = Ec.Txn.W32) addr =
  Ec.Txn.single_read ~id:(fresh ()) ~kind ~width addr

let write ?(width = Ec.Txn.W32) addr value =
  Ec.Txn.single_write ~id:(fresh ()) ~width addr ~value

let bread ?(kind = Ec.Txn.Data) addr = Ec.Txn.burst_read ~id:(fresh ()) ~kind addr
let bwrite addr values = Ec.Txn.burst_write ~id:(fresh ()) addr ~values
