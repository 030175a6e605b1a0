type bus =
  | Rtl_bus of Rtl.Bus.t
  | L1_bus of Tlm1.Bus.t
  | L2_bus of Tlm2.Bus.t

type t = {
  kernel : Sim.Kernel.t;
  platform : Soc.Platform.t;
  bus : bus;
  level : Level.t;
}

let create_bus ~kernel ~decoder ~level ~estimate ~record_profile ~table
    ~rtl_params ~l2_params =
  match level with
  | Level.Rtl ->
    Rtl_bus
      (Rtl.Bus.create ~kernel ~decoder ?params:rtl_params ~record_profile ())
  | Level.L1 ->
    let energy =
      if estimate then Some (Tlm1.Energy.create ~record_profile table)
      else None
    in
    L1_bus (Tlm1.Bus.create ~kernel ~decoder ?energy ())
  | Level.L2 | Level.L3 ->
    (* Layer 3 has no bus model of its own: an L3 system is the layer-2
       carrier bus, driven by serial blocking replay through
       [Ec.Port.transact] (DESIGN.md 17.4). *)
    let energy =
      if estimate then
        Some (Tlm2.Energy.create ~record_profile ?params:l2_params table)
      else None
    in
    L2_bus (Tlm2.Bus.create ~kernel ~decoder ?energy ())

let iface = function
  | Rtl_bus b -> Rtl.Bus.iface b
  | L1_bus b -> Rtl.Bus.iface (Tlm1.Bus.engine b)
  | L2_bus b -> Tlm2.Bus.iface b

let create ?(level = Level.L1) ?(estimate = true) ?(record_profile = false)
    ?(table = Power.Characterization.default) ?rtl_params ?l2_params ?seed
    ?extra_slaves ?peripheral_clock () =
  let kernel = Sim.Kernel.create () in
  let platform =
    Soc.Platform.create ~kernel ?seed ?extra_slaves ?peripheral_clock ()
  in
  let bus =
    create_bus ~kernel ~decoder:(Soc.Platform.decoder platform) ~level
      ~estimate ~record_profile ~table ~rtl_params ~l2_params
  in
  Soc.Platform.connect_bus platform (Iface.port (iface bus));
  { kernel; platform; bus; level }

let kernel t = t.kernel
let platform t = t.platform
let bus t = t.bus
let level t = t.level
let port t = Iface.port (iface t.bus)
let bus_busy t = Iface.busy (iface t.bus)
let completed_txns t = Iface.completed_txns (iface t.bus)
let completed_beats t = Iface.completed_beats (iface t.bus)
let error_txns t = Iface.error_txns (iface t.bus)

let bus_pj = function
  | Rtl_bus b -> Rtl.Diesel.total_pj (Rtl.Bus.diesel b)
  | L1_bus b -> begin
    match Tlm1.Bus.energy b with
    | Some e -> Tlm1.Energy.total_pj e
    | None -> 0.0
  end
  | L2_bus b -> begin
    match Tlm2.Bus.energy b with
    | Some e -> Tlm2.Energy.total_pj e
    | None -> 0.0
  end

let bus_energy_pj t = bus_pj t.bus

let bus_transitions t =
  match t.bus with
  | Rtl_bus b -> Rtl.Diesel.transitions_total (Rtl.Bus.diesel b)
  | L1_bus b -> begin
    match Tlm1.Bus.energy b with
    | Some e -> Tlm1.Energy.transitions_total e
    | None -> 0
  end
  | L2_bus _ -> 0

let component_energy_pj t = Soc.Platform.components_energy_pj t.platform

let bus_meter = function
  | Rtl_bus b -> Some (Rtl.Diesel.meter (Rtl.Bus.diesel b))
  | L1_bus b -> Option.map Tlm1.Energy.meter (Tlm1.Bus.energy b)
  | L2_bus b -> Option.map Tlm2.Energy.meter (Tlm2.Bus.energy b)

let meter t = bus_meter t.bus

let profile t = Option.bind (meter t) Power.Meter.profile

let energy_since_last_call_pj t =
  match meter t with
  | Some m -> Power.Meter.since_last_call_pj m
  | None -> 0.0

(* Compiled-plan capture (DESIGN.md section 14): integer taps record
   everything the evaluator needs, and the table-independent scalars are
   read off the bus once the run is over.  The gate level and layer 1 run
   one engine, so one tap on it records the wire image at both (layer 1
   without estimation never commits its wires).  Layer 3 taps its
   layer-2 carrier.  [bus] is a second bus of the same level on this
   system's clock (a bridged far side); it owns no platform, so its
   component energy is 0. *)
let capture ?bus t =
  let on = match bus with Some bus -> { t with bus } | None -> t in
  let off () = invalid_arg "Core.System.capture: estimation is off" in
  let wires engine =
    let r = Compile.Plan.wire_recorder () in
    Rtl.Bus.set_tap engine (Some (Compile.Plan.wire_observe r));
    fun () ->
      Rtl.Bus.set_tap engine None;
      Compile.Plan.wire_finish r
  in
  let finish =
    match on.bus with
    | Rtl_bus b -> wires b
    | L1_bus b when Option.is_some (Tlm1.Bus.energy b) ->
      wires (Tlm1.Bus.engine b)
    | L1_bus _ -> off ()
    | L2_bus b -> (
      match Tlm2.Bus.energy b with
      | Some e ->
        let r = Compile.Plan.l2_recorder () in
        Tlm2.Energy.set_observer e (Some (Compile.Plan.l2_observe r));
        fun () ->
          Tlm2.Energy.set_observer e None;
          Compile.Plan.l2_finish r
      | None -> off ())
  in
  fun ~cycles ->
    {
      Compile.Plan.body = finish ();
      meta =
        {
          level = t.level;
          cycles;
          txns = completed_txns on;
          beats = completed_beats on;
          errors = error_txns on;
          transitions = bus_transitions on;
          component_pj =
            (if Option.is_none bus then component_energy_pj t else 0.0);
        };
    }

let reset_bus = function
  | Rtl_bus b -> Rtl.Bus.reset b
  | L1_bus b -> Tlm1.Bus.reset b
  | L2_bus b -> Tlm2.Bus.reset b

let reset t =
  Sim.Kernel.reset t.kernel;
  Soc.Platform.reset t.platform;
  reset_bus t.bus
