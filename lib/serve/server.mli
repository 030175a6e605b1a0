(** The simulation-service daemon (DESIGN.md section 15).

    A server listens on a Unix-domain socket and/or a loopback TCP port,
    reads length-prefixed {!Obs.Json} request frames ({!Framing}),
    validates them into typed jobs ({!Protocol}) and enqueues them into
    a bounded {!Jobq}.  Worker domains, one per worker, drain the
    queue: each worker leases reset sessions and memoized compiled
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

(** A test-only hold on the workers, so that tests of queueing and
    drain need no slow jobs and no clock.  A worker that has dequeued a
    job waits at the latch until the job is admitted; jobs are admitted
    in the order they reached the latch. *)
module Latch : sig
  type t

  val create : unit -> t
  (** A closed latch: no job has been admitted. *)

  val admit : t -> int -> unit
  (** [admit l n] lets [n] more jobs past, the earliest held first. *)

  val release : t -> unit
  (** Lets every job past from now on.  Idempotent. *)

  val await_arrivals : t -> int -> unit
  (** [await_arrivals l n] blocks until [n] jobs in total have reached
      the latch (admitted or not). *)
end

val create :
  ?unix_path:string ->
  ?tcp_port:int ->
  domains:int ->
  ?queue_depth:int ->
  ?max_frame:int ->
  ?handle_signals:bool ->
  ?latch:Latch.t ->
  unit ->
  t
(** Binds the listeners immediately — a client may connect as soon as
    [create] returns, the backlog holds until {!serve} starts accepting.
    At least one of [unix_path]/[tcp_port] is required ([tcp_port = 0]
    binds an ephemeral port, see {!tcp_port}); a stale socket file at
    [unix_path] is unlinked.  [domains] is the worker count, one
    domain each; [queue_depth] (default 64) bounds the job queue;
    [handle_signals] (default [false]) installs SIGINT/SIGTERM handlers
    that initiate a drain; [latch] (tests only) holds every dequeued
    job until it is admitted.
    @raise Invalid_argument without any listener or with [domains] or
    [queue_depth] below 1. *)

val serve : t -> unit
(** Runs the daemon until a drain completes.  The workers run on
    [domains] spawned domains; the calling thread runs no job, so the
    accept, reader, ticker and signal threads share its domain with I/O
    only.  On return every accepted job has finished, all sockets are
    closed, the Unix socket file is unlinked and the signal handlers
    are restored.  May only be called once.  If a worker domain cannot
    be spawned, the daemon drains, tears down and re-raises. *)

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
