(** The cycle-accurate EC bus controller: the one phase machine of the
    gate level ("layer 0") and of layer 1, the paper's "transfer layer".

    Implements the micro-protocol of DESIGN.md section 3 cycle by cycle
    over the physical wire set ({!Wires}), in the four phases of the
    paper's Figure 3: a serialized address channel with slave wait
    states, independent in-order read and write data engines (one beat
    per cycle each, separate buses), pipelined address/data phases, and
    bus errors on unmapped or right-violating accesses; the master side,
    with its per-category outstanding limits of four, is the shared
    {!Iface}.  Every phase sets the new values of the wires it drives.

    The two levels differ only in the estimator that closes each cycle
    after the write phase: the gate-level {!Diesel} (the golden timing and
    energy reference), or the layer-1 fold over the five interface
    groups' [current lxor next] words ([Tlm1.Energy]).

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
(** The gate-level bus: creates the engine, its wires and its {!Diesel}
    estimator, and registers the bus process ["rtl-bus"] with [kernel].
    The sink its {!iface} holds ({!Iface.set_sink}) receives the
    instrumentation: transaction lifecycle events
    (issue/reject/grant/beat/finish/error), wait-state stalls per slave
    and request-queue occupancy.  Without a sink the per-cycle path is
    untouched (a single option match, no allocation), and energy figures
    are bit-identical either way. *)

val layer1 :
  kernel:Sim.Kernel.t -> decoder:Ec.Decoder.t -> (Wires.t -> unit) option -> t
(** [layer1 ~kernel ~decoder close] is the same engine as the layer-1
    bus process ["tlm1-bus"]: [close] reads and commits the wires at the
    end of every cycle.  Without it the phases still drive the wires, but
    nothing commits them. *)

val iface : t -> Iface.t
(** The master side: port, outstanding limits, traffic counters. *)

val wires : t -> Wires.t

val set_tap : t -> (Wires.t -> unit) option -> unit
(** Attaches ([Some f]) or detaches the plan recorder's tap: [f] reads
    the wires after the write phase, before the estimator closes the
    cycle. *)

val diesel : t -> Diesel.t
(** @raise Invalid_argument on a {!layer1} bus. *)

val queue_depths : t -> int * int * int
(** Current (request, read, write) queue depths; a transaction in a
    phase is in none of them. *)

val reset : t -> unit
(** Back to the freshly created state: queues, in-flight phases, the
    master interface ({!Iface.reset}), the wires, the tap and a gate-level
    estimator all clear.  The kernel registration and the decoder are
    kept — reset exists so a wired-up session can be reused. *)
