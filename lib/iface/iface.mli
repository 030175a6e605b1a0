(** The slave side of the EC master interface, shared by the rtl,
    layer-1 and layer-2 bus models, which differ only in how their bus
    process moves a transaction (DESIGN.md section 3).  It owns the limit
    of four outstanding transactions per category (instruction reads,
    data reads, writes), the finish store the masters poll, the traffic
    counters, the issued/rejected/finished/error events and their reset.

    A bus model takes each accepted transaction through [enqueue] and
    reports its end with {!finish}; in between it sits in one queue or
    phase of the model, so the bus is busy exactly while a transaction
    is outstanding. *)

type t

val create : kernel:Sim.Kernel.t -> enqueue:(Ec.Txn.t -> int) -> t
(** [enqueue txn] pushes an accepted transaction onto the model's request
    queue and returns the queue depth the issue event reports.  [kernel]
    timestamps the events. *)

val port : t -> Ec.Port.t
(** The masters' interface, built once at {!create}. *)

val sink : t -> Obs.Sink.t option
(** The run's instrumentation sink, the one place a bus holds it. *)

val set_sink : t -> Obs.Sink.t option -> unit
(** A run attaches its sink here when it arms its session; a field
    write. *)

val finish : t -> Ec.Txn.t -> Ec.Port.poll -> unit
(** The bus is done with an accepted transaction: [Done] after its last
    beat, [Failed] on a bus error.  Frees its category slot, stores the
    outcome for the master's poll and counts it.  Never [Pending]. *)

val busy : t -> bool
(** True while any accepted transaction has not finished. *)

val completed_txns : t -> int
val completed_beats : t -> int
val error_txns : t -> int

val reset : t -> unit
(** No transaction outstanding or stored, counters at zero, no sink. *)
