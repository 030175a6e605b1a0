(** Register-transfer-level EC bus controller (reference, "layer 0").

    Implements the micro-protocol of DESIGN.md section 3 cycle by cycle
    over the physical wire set: a serialized address channel with slave
    wait states, independent in-order read and write data engines (one
    beat per cycle each, separate buses), pipelined address/data phases,
    and bus errors on unmapped or right-violating accesses; the master
    side, with its per-category outstanding limits of four, is the shared
    {!Iface}.  The attached {!Diesel} estimator provides the golden timing
    and energy reference for the transaction-level models.

    The bus process runs on the falling clock edge; masters drive the
    {!Ec.Port.t} on the rising edge. *)

type t

val create :
  kernel:Sim.Kernel.t ->
  decoder:Ec.Decoder.t ->
  ?params:Params.t ->
  ?record_profile:bool ->
  unit ->
  t
(** Creates the bus, its wires and its estimator, and registers the bus
    process with [kernel].  The sink its {!iface} holds
    ({!Iface.set_sink}) receives the instrumentation: transaction
    lifecycle events (issue/reject/grant/beat/finish/error), wait-state
    stalls per slave and request-queue occupancy.  Without a sink the
    per-cycle path is untouched (a single option match, no allocation),
    and energy figures are bit-identical either way. *)

val iface : t -> Iface.t
(** The master side: port, outstanding limits, traffic counters. *)

val wires : t -> Wires.t
val diesel : t -> Diesel.t

val reset : t -> unit
(** Back to the freshly created state: queues, in-flight phases, the
    master interface ({!Iface.reset}), wires and the estimator all
    clear.  The kernel registration and the decoder are
    kept — reset exists so a wired-up session can be reused. *)
