(** Fixed-shape simulator metrics: counters and fixed-bucket histograms.

    All storage is preallocated at creation; recording increments
    scalars or array cells and never allocates, so a metrics-carrying
    {!Sink} can sit on the per-cycle bus paths.  The shape is fixed to
    the quantities the bus models expose: issue/finish/error/reject
    counters, wait-state stalls (total and per slave), and histograms of
    transaction latency, request-queue occupancy at issue, master-side
    outstanding transactions and bus energy per beat. *)

type t

val create : unit -> t

(** {1 Recording} (allocation-free) *)

val incr_issued : t -> unit
val incr_rejected : t -> unit
val incr_finished : t -> unit
val incr_errored : t -> unit
val incr_beats : t -> unit

val incr_dropped : t -> unit
(** An event the recording sink had to discard (ring full) — surfaced as
    the ["events-dropped"] counter so truncated traces are detectable. *)

val add_wait_stall : t -> slave:int -> unit
(** One data- or address-phase stall cycle attributed to [slave]
    (out-of-range slave indices count only toward the total). *)

val observe_latency : t -> cycles:int -> unit
val observe_occupancy : t -> depth:int -> unit
val observe_outstanding : t -> depth:int -> unit
val observe_pj_per_beat : t -> float -> unit

(** {1 Reading} *)

val issued : t -> int
val rejected : t -> int
val finished : t -> int
val errored : t -> int
val beats : t -> int

(** {1 Standalone histograms}

    The same preallocated fixed-bucket histogram the metrics record
    uses, for callers that track their own quantities (e.g. the service
    telemetry registry).  Recording never allocates. *)

type hist

val hist : string -> float array -> hist
(** [hist name bounds]: [bounds] are inclusive upper bucket bounds in
    ascending order; one overflow bucket is added past the last. *)

val observe_int : hist -> int -> unit

type hist_view = {
  name : string;
  bounds : float array;  (** inclusive upper bucket bounds, ascending *)
  counts : int array;  (** [Array.length bounds + 1]; last is overflow *)
  total : int;
  sum : float;
  mean : float;  (** 0 when empty *)
}

type view = {
  counters : (string * int) list;
      (** includes one ["wait-stalls/<slave>"] entry per slave index
          that recorded at least one stall *)
  hists : hist_view list;
}

val view : t -> view
(** Snapshot; independent of later recording. *)

val hist_view : hist -> hist_view
(** Snapshot of a standalone histogram. *)

val bucket_label : float array -> int -> string
(** Human label of bucket [i] of a {!hist_view} ("<=4", "4-8", ">1024"). *)

val percentile : hist_view -> float -> float
(** Upper-bound estimate of the [p]-th percentile (p in 0..100): the
    bound of the bucket where the cumulative count crosses the rank; the
    unbounded overflow bucket reports twice the last bound.  0 when
    empty. *)

val hist_view_to_json : hist_view -> Json.t

val to_json : t -> Json.t
