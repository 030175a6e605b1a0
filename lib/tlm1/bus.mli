(** EC bus model at transaction level layer 1 (paper section 3.1).

    Cycle-accurate ("transfer layer"): the bus process runs on every clock
    edge in four phases — slave state query, address phase FSM, read
    phase, write phase — moving requests through the internal request,
    read and write queues to the finish store of the shared {!Iface}.
    Master and slave interfaces are
    non-blocking; a transaction transports one data item per interface
    call.  The optional layer-1 {!Energy} model is updated by the phases
    and closed after the write phase, exactly as in the paper's Figure 5.

    The timing realized here is the micro-protocol of DESIGN.md section 3;
    it must agree cycle-for-cycle with {!Rtl.Bus} (Table 1's 0% error),
    which the test suite checks on random traffic. *)

type t

val create :
  kernel:Sim.Kernel.t ->
  decoder:Ec.Decoder.t ->
  ?energy:Energy.t ->
  unit ->
  t
(** Registers the bus process with [kernel].  When [energy] is omitted the
    model runs without estimation (the faster configuration of Table 3).
    The sink its {!iface} holds records lifecycle/stall/occupancy
    instrumentation; estimation results are bit-identical with or
    without it. *)

val iface : t -> Iface.t
(** The master side: port, outstanding limits, traffic counters. *)

val energy : t -> Energy.t option

val queue_depths : t -> int * int * int
(** Current (request, read, write) queue depths, for structural tests. *)

val reset : t -> unit
(** Queues, in-flight phases, the master interface ({!Iface.reset}) and
    the attached energy model back to the freshly created state; the kernel registration and decoder are kept so the
    session can be reused. *)
