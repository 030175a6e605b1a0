(** Bus monitor: records the transactions a master issues, as a replayable
    trace.

    Wraps an {!Ec.Port.t}; accepted submissions are logged together with
    the idle gap (in cycles) since the previous acceptance.  This is the
    paper's trace flow: "We traced the bus transactions and used them as
    input test sequences for the transaction level models."

    Refused submissions (bus state [wait] at the master, i.e. the
    outstanding-category limit was hit) are counted too: {!rejected}
    reports every retried attempt, so the back-pressure observed while
    tracing can be reconciled with the rejected counts an instrumented
    replay ({!Obs.Metrics.rejected}) reports for the same traffic. *)

type t

val create : kernel:Sim.Kernel.t -> Ec.Port.t -> t
(** The kernel is only used as the clock for gap computation. *)

val port : t -> Ec.Port.t
(** The instrumented port to hand to the master. *)

val trace : t -> Ec.Trace.t
(** Everything recorded so far, in issue order. *)

val count : t -> int

val rejected : t -> int
(** Submissions the bus refused (each refusal is one retried attempt by
    the master on a later cycle). *)
