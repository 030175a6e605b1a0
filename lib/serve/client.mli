(** Client side of the wire protocol: a blocking connection for scripts,
    tests and the [smartcard client] subcommand.

    One connection supports pipelining (ids distinguish interleaved
    response streams), but the helpers here are deliberately sequential:
    send one request, read frames until its [done]/[error] terminator.
    Concurrency is spelled "one connection per thread". *)

type endpoint = [ `Unix of string | `Tcp of string * int ]

type t

val connect : endpoint -> t
(** Responses are read with {!Framing.default_max_frame}.
    @raise Unix.Unix_error when nothing listens on the endpoint. *)

val close : t -> unit

val fd : t -> Unix.file_descr
(** The raw descriptor, for tests that need to write malformed bytes or
    shut a direction down.  Only write to it: responses are read through
    the connection's buffered {!Framing.reader}, which may already hold
    bytes the descriptor no longer shows, so reading (or [select]ing)
    the descriptor directly desynchronizes the stream. *)

val send : ?id:int -> t -> Protocol.request -> int
(** Frames one request and returns the id used (auto-allocated when
    omitted). *)

val send_json : t -> Obs.Json.t -> unit
(** Ships an arbitrary document as one frame — the malformed-request
    tests live on this. *)

val read_frame : t -> (Obs.Json.t, string) result
(** One raw response frame; [Error] on EOF or a framing violation. *)

val read_typed : t -> (Obs.Json.t * Protocol.frame, string) result
(** {!read_frame} plus decoding: the echoed id and the typed frame. *)

val collect : t -> (Protocol.frame list, string) result
(** Reads typed frames until the stream's terminator and returns the
    whole stream in order, terminator included.  The terminator is the
    [done] summary, or a rejection-class [error] frame
    ([busy]/[draining]/[bad_*]/[unknown_type]) which is a complete
    response by itself; a [failed] error is {e not} terminal — the
    server still sends the job's [done] summary after it, and collect
    reads on so the connection stays aligned for the next request. *)

val request : ?id:int -> t -> Protocol.request -> (Protocol.frame list, string) result
(** [send] + [collect].  A connection the daemon has already closed is
    an [Error], never a raised [Unix.Unix_error]: this holds for
    {!request_retrying}, {!subscribe} and {!unsubscribe} too. *)

val request_retrying :
  t -> Protocol.request -> (Protocol.frame list, string) result
(** Like {!request}, but a [busy] rejection sleeps the advertised
    [retry_after_ms] and resends, up to 10 times —
    the polite client loop the backpressure design assumes. *)

val subscribe :
  ?id:int ->
  ?interval_ms:int ->
  t ->
  streams:Protocol.stream list ->
  (int, string) result
(** Opens a telemetry subscription and waits for the [subscribed] ack;
    returns the id tagging every stream frame.  The caller then reads
    stream frames with {!read_typed} at its own pace — a subscriber that
    stops reading eventually stalls the daemon's ticker thread (see
    DESIGN.md section 16), never its workers. *)

val unsubscribe : t -> (unit, string) result
(** Ends the subscription and drains stream frames still in flight
    ahead of the ack, leaving the connection aligned for the next
    request. *)
