(** EC bus model at transaction level layer 1 (paper section 3.1).

    Cycle-accurate ("transfer layer"): the bus process is the gate
    level's own phase machine, {!Rtl.Bus} — slave state query, address
    phase, read phase, write phase over the request, read and write
    queues — driving the same {!Rtl.Wires}.  The two levels differ only
    in the estimator that closes each cycle: here the optional layer-1
    {!Energy} model, called after the write phase as in the paper's
    Figure 5.  Timing and traffic therefore equal the gate level's by
    construction (Table 1's 0% error), which the test suite still checks
    on random traffic. *)

type t

val create :
  kernel:Sim.Kernel.t ->
  decoder:Ec.Decoder.t ->
  ?energy:Energy.t ->
  unit ->
  t
(** Registers the bus process ["tlm1-bus"] with [kernel].  When [energy]
    is omitted the model runs without estimation (the faster
    configuration of Table 3).  The sink its engine's {!Rtl.Bus.iface}
    holds records lifecycle/stall/occupancy instrumentation; estimation
    results are bit-identical with or without it. *)

val energy : t -> Energy.t option

val engine : t -> Rtl.Bus.t
(** The cycle-accurate engine this bus runs: its master side
    ({!Rtl.Bus.iface}), wires, queues and plan tap. *)

val reset : t -> unit
(** Queues, in-flight phases, the master interface ({!Iface.reset}), the
    wires and the attached energy model back to the freshly created
    state; the kernel registration and decoder are kept so the session
    can be reused. *)
