(** Per-signal energy characterization tables.

    The paper characterizes the bus with the Diesel gate-level power
    estimator and abstracts "the average energy per transition for each
    signal considered for our power estimation".  A table maps every EC
    interface wire to that average (picojoules); the layer-1 and layer-2
    energy models consume nothing else.

    Tables come from two sources: {!default} computes them from the wire
    capacitances of {!Ec.Signals} (top-down estimation before layout data
    exist), and {!derive} plays the role of the Diesel flow by averaging a
    reference-model measurement over a training workload. *)

type t

val default : t
(** [0.5 * C * Vdd^2] per wire from {!Ec.Signals.default_capacitance_ff}. *)

val derive : name:string -> energy_pj:float array -> transitions:int array -> t
(** [derive ~name ~energy_pj ~transitions] averages measured per-wire
    energy over measured per-wire transition counts (both indexed by
    {!Ec.Signals.index}).  Wires that never toggled in the training run
    fall back to the {!default} value.

    @raise Invalid_argument if the arrays are not of length
    {!Ec.Signals.count}. *)

val energy_per_transition : t -> Ec.Signals.id -> float
(** Average energy per transition of one wire, picojoules. *)

val to_array : t -> float array
(** Every wire's {!energy_per_transition}, by {!Ec.Signals.index}, in a
    fresh array. *)

val scale : t -> float -> t
(** [scale t k] multiplies every entry (for sensitivity studies). *)

(** The per-class averages are precomputed at table construction; reading
    them is free. *)

val avg_addr_bit : t -> float
val avg_wdata_bit : t -> float
val avg_rdata_bit : t -> float
val avg_be_bit : t -> float
val avg_ctrl_bit : t -> float

val pp : Format.formatter -> t -> unit
(** Summary rendering (per-group averages). *)
