(** The instrumentation sink: a preallocated event ring plus metrics.

    One sink is threaded (as a single optional argument) through the bus
    models, the trace master and the mixed-level engine.  Recording
    writes scalars into preallocated parallel arrays and updates the
    {!Metrics} — no allocation on any recording call, and the no-sink
    path in the instrumented models is a single immediate [match] on an
    option, so disabled instrumentation costs nothing measurable.

    The ring keeps the first [capacity] events of a run and counts the
    rest as dropped (metrics keep aggregating regardless), which
    preserves the start of the timeline for span reconstruction.

    Timestamps are the recording site's kernel cycle: a mixed-level run
    keeps every level on one kernel, so its windows share one timeline. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is the event-ring size, default 65536. *)

val metrics : t -> Metrics.t

val length : t -> int
(** Events currently held (at most [capacity]). *)

val dropped : t -> int
(** Events discarded because the ring was full. *)

val events : t -> Event.t list
(** The held events in record order.  Allocates (one record per event);
    meant for export and tests, not for the hot path. *)

(** {1 Recording}

    All cycle arguments are kernel cycles, recorded as given. *)

val txn_issued : t -> cycle:int -> id:int -> cat:int -> queue_depth:int -> unit
(** Also feeds the occupancy histogram and stamps the issue cycle used
    for the latency histogram at {!txn_finished}. *)

val txn_rejected : t -> cycle:int -> id:int -> cat:int -> unit
val txn_granted : t -> cycle:int -> id:int -> slave:int -> unit
val data_beat : t -> cycle:int -> id:int -> beat:int -> slave:int -> unit

val txn_finished : t -> cycle:int -> id:int -> beats:int -> unit
(** Computes the issue-to-finish latency when the issue was recorded. *)

val txn_error : t -> cycle:int -> id:int -> unit

val wait_stall : t -> slave:int -> unit
(** Metrics only (one stall cycle); too frequent to carry as events. *)

val master_outstanding : t -> depth:int -> unit
(** Metrics only: master-side outstanding transactions after a submit. *)

val window_open : t -> cycle:int -> index:int -> level:int -> unit

val window_close :
  t -> cycle:int -> index:int -> level:int -> beats:int -> pj:float -> unit
(** Also feeds the pJ-per-beat histogram. *)

val level_switch : t -> cycle:int -> index:int -> prev:int -> next:int -> unit
val energy_sample : t -> cycle:int -> pj:float -> unit
