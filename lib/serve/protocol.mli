(** Typed requests and response frames of the simulation service, with
    their {!Obs.Json} codecs (DESIGN.md section 15).

    A request is one JSON object per frame, carrying a client-chosen
    [id]; every response frame for that request echoes the [id], and the
    stream for one request always terminates with a [done] or [error]
    frame.  Floats cross the wire through {!Obs.Json}'s printer, which
    round-trips IEEE doubles exactly — a decoded energy figure is
    bit-identical to the one the simulation produced.

    The implementation declares each message's wire shape once — its
    tag, and each member's name, codec and default — and derives both
    the encoder and the decoder from that declaration.  An optional
    member is either left out when [None] ([fabric], [buckets],
    [retry_after_ms]) or sent as [null] ([value], [switches],
    [error_bound_pj]); either way an absent member decodes to [None],
    and a present member of the wrong type is a decode error.  Decode
    errors name the member path, e.g. [field "workload.n": ...]. *)

(** {1 Job descriptions} *)

type workload =
  | Table3 of int  (** {!Core.Workloads.table3_trace} with [n] transactions *)
  | Mixed_phase of int  (** {!Core.Workloads.mixed_phase_trace} *)
  | Characterization  (** the 2000-transaction training trace *)
  | Inline of string list
      (** an {!Ec.Trace.to_lines} serialization, shipped by the client *)

val trace_of_workload : workload -> Ec.Trace.t
(** Materializes the descriptor.  @raise Failure on malformed [Inline]
    lines (the request validator turns this into a [bad_request]). *)

type mode = [ `Serial | `Pipelined ]

type run = {
  workload : workload;
  level : Core.Level.t;
  mode : mode;
  estimate : bool;  (** default [true] *)
  profile : bool;  (** stream the per-cycle energy profile as jsonl chunks *)
  compiled : bool;
      (** evaluate off a memoized compiled plan (at any level, with
          [estimate]; an estimation-off run interprets) *)
}

(** Multi-master replay target: the workload trace drives the CPU
    master, with the standard DMA and crypto companions appended
    ({!Core.Contention.default_masters}); points evaluate off a memoized
    compiled fabric plan with per-master buckets on each frame. *)
type fabric_spec = {
  fab_policy : Ec.Arbiter.policy;  (** wire: ["fixed"|"rr"|"wrr:w,..."] *)
  fab_topology : Core.Contention.topology;
}

type replay = {
  workload : workload;
  level : Core.Level.t;  (** any level; a [fabric] replay not at [L3] *)
  mode : mode;
  scales : float list;
      (** one evaluation point per entry: the default characterization
          table scaled by the factor.  The table has no role at [Rtl],
          so there every scale answers the same figures. *)
  fabric : fabric_spec option;
      (** [None] replays the single-master trace plan, as before *)
}

type explore = {
  applets : string list;  (** by name; empty = all sample applets *)
  configs : string list;  (** by name; empty = the standard grid *)
  level : Core.Level.t;
  adaptive : bool;
      (** run cells through the live adaptive engine
          ({!Hier.Policy.for_exploration}); [level] is then ignored *)
}

(** {1 Telemetry subscriptions (DESIGN.md section 16)} *)

type stream =
  [ `Metrics  (** periodic {!Serve.Telemetry} snapshot + rendered tables *)
  | `Trace  (** Chrome/Perfetto trace-event chunks cut from server spans *)
  | `Energy  (** live copy of every energy-jsonl chunk the daemon streams *)
  ]

type subscribe = {
  streams : stream list;  (** non-empty *)
  interval_ms : int;  (** snapshot cadence, 10..60000; default 500 *)
}

type request =
  | Run of run
  | Explore of explore
  | Replay of replay
  | Stats
  | Metrics
      (** one-shot telemetry snapshot, served inline like [Stats] *)
  | Subscribe of subscribe
  | Unsubscribe
  | Shutdown

(** {1 Response frames} *)

type error_code =
  | Bad_frame  (** truncated stream inside a frame *)
  | Oversized  (** announced payload above the frame limit *)
  | Bad_json  (** payload is not one JSON document *)
  | Bad_request  (** JSON is fine, the request shape is not *)
  | Unknown_type
  | Busy  (** queue full: retry after [retry_after_ms] *)
  | Draining  (** server is shutting down, no new work *)
  | Failed  (** the job raised while executing *)

val error_code_to_string : error_code -> string

type result_body = {
  level : Core.Level.t;
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  transitions : int;
  wall_seconds : float;
}

val result_body_of_runner : Core.Runner.result -> result_body

type row_body = {
  config : string;
  applet : string;
  row_level : Core.Level.t;
  row_cycles : int;
  row_bus_pj : float;
  transactions : int;
  steps : int;
  value : int option;
  correct : bool;
  switches : int option;  (** adaptive rows: spliced provenance summary *)
  error_bound_pj : float option;
}

val row_body_of_exploration : Core.Exploration.row -> row_body

type point_body = {
  point_seq : int;
  scale : float;
  point_bus_pj : float;
  point_cycles : int;
  point_txns : int;
  point_transitions : int;
  point_buckets : float list option;
      (** fabric replays only: per-master attributed energy in master
          order; the wire member is omitted when absent, so
          single-master frames are unchanged *)
}

type pool_stats = {
  session_hits : int;
  session_builds : int;
  plan_hits : int;
  plan_builds : int;
}

type worker_stat = { worker : int; jobs : int }

type stats_body = {
  queue_depth : int;
  queue_capacity : int;
  stats_draining : bool;
  uptime_s : float;
  accepted : int;
  rejected : int;
  completed : int;
  failed : int;
  spans_dropped : int;
      (** telemetry spans overwritten in the server ring before any
          trace chunk could carry them *)
  workers : worker_stat list;
  pool : pool_stats;
  rendered : string;  (** {!Core.Report.pool_stats} of the server pool *)
}

type metrics_body = {
  metrics_seq : int;  (** per-subscription snapshot counter, from 0 *)
  snapshot : Obs.Json.t;  (** [Serve.Telemetry.snapshot] document *)
  metrics_rendered : string;  (** [Serve.Telemetry.render] tables *)
}

type trace_body = {
  trace_seq : int;  (** per-subscription chunk counter, from 0 *)
  trace_events : Obs.Json.t list;  (** Chrome trace-event objects *)
  trace_missed : int;
      (** ring entries overwritten before this chunk was cut — nonzero
          means the trace has a gap *)
}

type subscribed_body = { sub_streams : stream list; sub_interval_ms : int }

type error_body = {
  code : error_code;
  message : string;
  retry_after_ms : int option;  (** [Busy] rejections only *)
}

type done_body = {
  frames : int;  (** response frames before this one, [accepted] included *)
  latency_ms : float;  (** enqueue to completion *)
  done_worker : int;  (** index of the worker domain that served the job *)
  done_pool : pool_stats;  (** server pool counters after the job *)
}

type frame =
  | Accepted of int  (** queue depth at enqueue, this job included *)
  | Result of result_body
  | Row of int * row_body  (** [seq], in grid order *)
  | Point of point_body
  | Energy of int * string list  (** [seq], jsonl lines of a profile chunk *)
  | Stats_reply of stats_body
  | Metrics_reply of metrics_body
  | Trace_chunk of trace_body
  | Subscribed of subscribed_body
      (** subscribe ack — terminates the subscribe request; the stream
          frames that follow are tagged with the same id *)
  | Error of error_body
  | Done of done_body

(** {1 Codecs}

    [id] is the request id the frame belongs to — echoed verbatim, so a
    client that never sent an id gets [Null] back. *)

val request_to_json : id:Obs.Json.t -> request -> Obs.Json.t

val request_of_json :
  Obs.Json.t -> (request, error_code * string) result
(** Validation lives here: unknown ["type"] is [Unknown_type], any
    missing or ill-typed field is [Bad_request], and so are the checks
    on meaning: a workload [n] outside [1, 1000000], malformed inline
    trace lines, unknown applet or config names, a [fabric] replay at
    [L3] (fabric masters drive timed buses), a scale that is not
    positive, an empty [streams] list and an [interval_ms] outside
    [10, 60000].  Hints list what the enum tables accept. *)

val frame_to_json : id:Obs.Json.t -> frame -> Obs.Json.t

val frame_of_json : Obs.Json.t -> (Obs.Json.t * frame, string) result
(** Returns the echoed id alongside the decoded frame. *)

val request_id : Obs.Json.t -> Obs.Json.t
(** The ["id"] member of a request document, [Null] when absent — what a
    server echoes back even for requests it cannot decode. *)

val stream_to_wire : stream -> string
