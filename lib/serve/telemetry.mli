(** Daemon-wide telemetry registry (DESIGN.md section 16).

    Every request the daemon accepts gets a {e span}: one mutable record
    carrying microsecond timestamps for each lifecycle edge
    (accept -> enqueue -> dequeue -> execute -> done) plus the queue
    depth and worker id observed at those edges.  Completed spans feed
    per-request-kind and per-client counters and fixed-bucket histograms
    (reusing {!Obs.Metrics.hist}, so steady-state recording allocates
    only the span itself), and are retained in a circular ring from
    which Chrome/Perfetto trace chunks are cut for subscribers.

    Thread-safety: all registry updates serialize on an internal mutex;
    span field writes need none because a span is owned by exactly one
    thread at a time (the reader, then — with the job-queue handoff as
    the synchronization point — the worker). *)

type t
type span

val create : unit -> t
(** The completed-span ring holds 8192 spans and the queue-depth sample
    ring 16384 samples; both
    overwrite oldest when full, and overwrites are reported as
    {!spans_dropped} / per-chunk [missed]. *)

(** {1 Request kinds} *)

val kind_run : int
val kind_explore : int
val kind_replay : int
val kind_stats : int
val kind_shutdown : int
val kind_metrics : int
val kind_subscribe : int
val kind_unsubscribe : int

(** {1 Span lifecycle}

    Edges must be recorded in order; control requests answered inline on
    the reader thread skip the queue edges and use {!finish_control}. *)

val span_accept : t -> conn:int -> kind:int -> span
val span_enqueued : t -> span -> queue_depth:int -> unit
val span_rejected : t -> span -> unit
(** The request was refused (busy/draining); the span is accounted as a
    rejection and not retained in the trace ring. *)

val span_dequeued : t -> span -> worker:int -> queue_depth:int -> unit
val span_executed : t -> span -> ok:bool -> unit
val span_done : t -> span -> frames:int -> unit
val finish_control : t -> span -> frames:int -> unit

(** {1 Reading} *)

val spans_dropped : t -> int
(** Completed spans overwritten in the ring before export. *)

val spans_total : t -> int

val snapshot : t -> Obs.Json.t
(** The metrics snapshot document carried by [metrics] frames:
    per-kind counters + latency histograms, queue/execute/serialize
    phase histograms, per-client counters + queue-wait histograms. *)

val render : t -> string
(** {!Core.Report}-style tables of the same data, with approximate p50
    and p99 read from the histogram buckets. *)

(** {1 Chrome/Perfetto export}

    Server lanes: tid 150 carries control-plane instants, tid 200+w
    worker [w]'s request slices (B/E pairs, balanced by construction),
    and queue depth rides the counter track. *)

type cursor

val start_cursor : cursor

val chrome_chunk : t -> cursor -> Obs.Json.t list * cursor * int
(** Events recorded since [cursor] (sorted by timestamp), the advanced
    cursor, and how many ring entries were overwritten unseen. *)

val chrome_metadata : workers:int -> unit -> Obs.Json.t list
(** Process/thread-name metadata events naming the server lanes. *)

val write_chrome : path:string -> t -> unit
