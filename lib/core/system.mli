(** A complete simulated smart card: the Figure-1 platform attached to a
    bus model at a chosen abstraction level, sharing one clock. *)

type bus =
  | Rtl_bus of Rtl.Bus.t
  | L1_bus of Tlm1.Bus.t
  | L2_bus of Tlm2.Bus.t

val create_bus :
  kernel:Sim.Kernel.t ->
  decoder:Ec.Decoder.t ->
  level:Level.t ->
  estimate:bool ->
  record_profile:bool ->
  table:Power.Characterization.t ->
  rtl_params:Rtl.Params.t option ->
  l2_params:Tlm2.Energy.params option ->
  bus
(** The one place a bus is built, by {!create} and by the contention
    study's far side: [level]'s model ({!Level.L3}: the layer-2 carrier)
    with its energy model when [estimate] holds (rtl always estimates). *)

val iface : bus -> Iface.t
(** The bus's master interface: port, traffic counters, [busy]. *)

val bus_meter : bus -> Power.Meter.t option
(** The bus energy model's accumulator, [None] without estimation. *)

val bus_pj : bus -> float
(** What the bus energy model reports (0 without estimation): the
    meter's total at layers 1 and 2, {!Rtl.Diesel.total_pj} at the gate
    level. *)

val reset_bus : bus -> unit
(** The bus and its energy model back to their creation state. *)

type t

val create :
  ?level:Level.t ->
  ?estimate:bool ->
  ?record_profile:bool ->
  ?table:Power.Characterization.t ->
  ?rtl_params:Rtl.Params.t ->
  ?l2_params:Tlm2.Energy.params ->
  ?seed:int ->
  ?extra_slaves:Ec.Slave.t list ->
  ?peripheral_clock:[ `Running | `Gated ] ->
  unit ->
  t
(** [peripheral_clock] is forwarded to {!Soc.Platform.create}: [`Gated]
    freezes the peripherals (and their cycle counts) while keeping every
    slave bus-addressable.  Either way idle peripherals cost no
    simulation time; they differ only in what the components count.

    Defaults: [level = L1], energy estimation on, no profile recording,
    the capacitance-based default characterization table for the
    transaction-level energy models, default electrical parameters for the
    reference estimator.  [estimate:false] runs the bus without an energy
    model (the faster configuration of Table 3); it does not affect the
    RTL reference, whose estimator is integral. *)

val kernel : t -> Sim.Kernel.t
val platform : t -> Soc.Platform.t
val bus : t -> bus
val level : t -> Level.t
val port : t -> Ec.Port.t
(** [Iface.port (iface (bus t))]; likewise the four readers below. *)

val bus_busy : t -> bool
val completed_txns : t -> int
val completed_beats : t -> int
val error_txns : t -> int

val bus_energy_pj : t -> float
(** Estimated bus energy at this system's level (0 without estimation). *)

val bus_transitions : t -> int
(** Interface signal transitions counted by the bus energy model (0 for
    layer 2 and for estimation-off runs). *)

val component_energy_pj : t -> float

val meter : t -> Power.Meter.t option
(** The per-cycle accumulator behind this system's bus energy estimate
    ([None] when estimation is off).  {!Ec.Fabric} taps it for sticky-owner
    per-master attribution (DESIGN.md section 17.3). *)

val profile : t -> Power.Profile.t option
(** Per-cycle bus energy profile, when recording was requested. *)

val energy_since_last_call_pj : t -> float
(** The paper's sampling method on whichever power interface the level
    provides. *)

val capture : ?bus:bus -> t -> cycles:int -> Compile.Plan.t
(** [capture t] attaches a plan recorder to [t]'s bus — or to [bus], a
    second bus of [t]'s level on [t]'s clock — and returns the closure
    to call once the run is over: it detaches the recorder and builds
    the {!Compile.Plan.t} from the recorded body and the bus's counters,
    with [cycles] as the run length and [t]'s level as the plan's.
    Component energy comes from [t]'s platform, or is 0 for a [bus]
    given separately.  The one place compiled plans are recorded
    (DESIGN.md section 14), at every level: the gate level and layer 1
    tap their shared engine ({!Rtl.Bus.set_tap}) for the same wire body,
    layer 2 taps its energy model and layer 3 its layer-2 carrier's.
    Call it before the run starts.

    @raise Invalid_argument without estimation. *)

val reset : t -> unit
(** Puts the whole session back to its creation state in place: kernel
    clock, every platform memory and peripheral, and the bus
    model with its energy estimator.  The wiring (decoder, registered
    processes, connected masters) is kept, so a reset system replays any
    workload bit-identically to a freshly built one.  Reset detaches
    the bus's sink ({!Iface.reset}), as a fresh build has none. *)
