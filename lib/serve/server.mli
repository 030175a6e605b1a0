(** The simulation-service daemon (DESIGN.md section 15).

    A server listens on a Unix-domain socket and/or a loopback TCP port,
    reads length-prefixed {!Obs.Json} request frames ({!Framing}),
    validates them into typed jobs ({!Protocol}) and enqueues them into
    a bounded {!Jobq}.  A {!Core.Parallel.with_pool} domain set drains
    the queue: each worker leases reset sessions and memoized compiled
    plans from one shared {!Core.Pool} ({!Scheduler}), streams response
    frames back as they are produced, and terminates every request with
    a [done] summary frame (latency, worker, pool hit counters).

    Backpressure: a push against a full queue is rejected immediately
    with a [busy] error frame carrying [retry_after_ms] — accepted jobs,
    by contrast, are never lost, not even across a drain.

    Graceful drain ([shutdown] request, {!drain}, or SIGINT/SIGTERM when
    [handle_signals] is set): stop accepting connections, answer new
    requests with [draining], finish every queued and in-flight job,
    then release sockets and return from {!serve}. *)

type t

val create :
  ?unix_path:string ->
  ?tcp_port:int ->
  domains:int ->
  ?queue_depth:int ->
  ?max_frame:int ->
  ?handle_signals:bool ->
  unit ->
  t
(** Binds the listeners immediately — a client may connect as soon as
    [create] returns, the backlog holds until {!serve} starts accepting.
    At least one of [unix_path]/[tcp_port] is required ([tcp_port = 0]
    binds an ephemeral port, see {!tcp_port}); a stale socket file at
    [unix_path] is unlinked.  [domains] is the total worker count,
    the {!serve}-calling thread included; [queue_depth] (default 64)
    bounds the job queue; [handle_signals] (default [false]) installs
    SIGINT/SIGTERM handlers that initiate a drain.
    @raise Invalid_argument without any listener or with [domains] or
    [queue_depth] below 1. *)

val serve : t -> unit
(** Runs the daemon on the calling thread (which doubles as worker 0)
    until a drain completes.  On return every accepted job has finished,
    all sockets are closed, the Unix socket file is unlinked and the
    signal handlers are restored.  May only be called once. *)

val drain : t -> unit
(** Initiates a graceful drain from any thread.  Idempotent. *)

val draining : t -> bool

val tcp_port : t -> int option
(** The actually bound TCP port (resolves [tcp_port:0]). *)

val pool : t -> Core.Pool.t
(** The server's session/plan pool — its counters feed the [stats]
    request and the [done] frames. *)

val telemetry : t -> Telemetry.t
(** The server's telemetry registry — per-request spans, per-kind and
    per-client histograms, and the rings behind [metrics]/[trace]
    subscription frames.  Useful after {!serve} returns to export a
    whole-daemon trace ([smartcard serve --trace-out]). *)
