(** EC bus model at transaction level layer 2 (paper section 3.2).

    Timed but not cycle accurate: a burst is a single transaction, data is
    passed by pointer, and the detailed timing of layer 1 is replaced by
    wait-state counters snapshot from the slave "when the transaction is
    created during the first interface call".  The bus process decrements
    the address wait counter each cycle, then the data wait counter; at
    the end of the data phase the slave's block interface is invoked once
    for the whole transaction.

    Two deliberate abstractions produce the small timing error of Table 1:
    data phases of all transactions are serialized in one engine (layer 1
    overlaps independent read and write data phases), while address phases
    still pipeline ahead of data phases.  The one data engine also orders
    data: in pipelined issue, a read granted while an earlier burst write
    to its word is still moving returns the written word, where the gate
    level's separate read bus returns the old one.  Layer-2 read data
    equal the gate level's in serial issue only
    ([test/l2_raw_hazard.trace], [suite_levels]). *)

type t

val create :
  kernel:Sim.Kernel.t ->
  decoder:Ec.Decoder.t ->
  ?energy:Energy.t ->
  unit ->
  t
(** The sink its {!iface} holds records lifecycle/stall
    instrumentation.  Layer 2 moves a burst in one block call, so its
    {!Obs.Event.Data_beat} events for a burst share one timestamp; beat
    counts still match the other levels. *)

val iface : t -> Iface.t
(** The master side: port, outstanding limits, traffic counters. *)

val energy : t -> Energy.t option

val reset : t -> unit
(** Queues, the master interface ({!Iface.reset}) and the attached
    energy model back to the freshly created state; kernel
    registration and decoder are kept for reuse. *)
