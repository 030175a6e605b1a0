(** Bus master replaying a recorded transaction trace.

    This is the paper's verification vehicle: transactions traced from the
    register-transfer model (or written by hand from the EC specification
    examples) are used as input test sequences for the transaction-level
    models.  Two issue disciplines:

    - [`Serial]: wait for each transaction to finish before issuing the
      next (after its idle gap) — the shape of blocking CPU traffic;
    - [`Pipelined]: issue as fast as the bus accepts, keeping several
      transactions outstanding — exercises address/data pipelining,
      back-to-back transfers and read/write overlap. *)

type mode = [ `Serial | `Pipelined ]

type t

val create :
  kernel:Sim.Kernel.t ->
  port:Ec.Port.t ->
  ?name:string ->
  ?mode:mode ->
  ?keep_results:bool ->
  Ec.Trace.t ->
  t
(** [name] labels the kernel process (default ["trace-master"]); give
    each master a distinct name when several share one kernel, so
    {!Sim.Kernel.process_names} and {!Sim.Kernel.runs} tell them apart.
    [mode] defaults to [`Pipelined].  With [keep_results] the completed
    transactions (with read data) are retained for inspection. *)

val finished : t -> bool
val results : t -> Ec.Txn.t list
(** Completed transactions in completion order (requires
    [keep_results]). *)

val run : t -> kernel:Sim.Kernel.t -> ?max_cycles:int -> unit -> int
(** Steps the kernel until the trace is fully processed; returns the
    cycles consumed by this call. *)

val reset : ?mode:mode -> sink:Obs.Sink.t option -> t -> Ec.Trace.t -> unit
(** Re-arms the master with a new trace exactly as {!create} would: id
    supply restarted, in-flight bookkeeping cleared, first item loaded
    into the submit slot.  [mode] switches the issue discipline for the
    new run (kept otherwise); the kernel registration and port stay.
    The run's [sink] records the master-side outstanding-transaction
    occupancy on every accepted submission (the bus-side events go to
    the bus's [Iface.sink]). *)
