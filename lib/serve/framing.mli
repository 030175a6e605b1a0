(** Length-prefixed JSON framing (DESIGN.md section 15).

    Every message in either direction is one frame: a 4-byte big-endian
    unsigned payload length, then that many bytes of UTF-8 JSON — one
    document per frame.  The prefix makes message boundaries independent
    of JSON whitespace and lets a receiver reject an oversized payload
    before reading it. *)

val default_max_frame : int
(** 16 MiB — far above any response this server streams (large results
    are chunked), low enough that a corrupt prefix cannot make a reader
    allocate gigabytes. *)

type read_result =
  | Frame of string  (** one complete payload *)
  | Closed  (** clean EOF on a frame boundary *)
  | Truncated  (** EOF inside a prefix or payload: the peer died mid-frame *)
  | Oversized of int
      (** prefix announced this many bytes, above [max_frame]; the
          payload has {e not} been consumed — see {!discard} *)
  | Stopped
      (** [stop] said to give up during a receive timeout — only
          reachable when the caller passed [stop] {e and} armed
          [SO_RCVTIMEO] on the descriptor *)

type reader
(** The receiving end of one connection: frames are cut out of a 64 KiB
    buffer, and one [Unix.read] takes every frame the peer has already
    sent.  A connection has exactly one reader, and nothing else may read
    its descriptor: bytes the reader has buffered would be lost to the
    other party, and the stream would lose its frame boundaries. *)

val reader : Unix.file_descr -> reader

val read : ?max_frame:int -> ?stop:(unit -> bool) -> reader -> read_result
(** Blocking read of one frame, from the buffer when it already holds
    one.  When the descriptor carries a receive timeout
    ([SO_RCVTIMEO]), each expiry consults [stop] (default: never stop):
    the read keeps waiting while it returns [false] and answers
    {!Stopped} once it returns [true] — even in the middle of a frame,
    so one stalled peer cannot pin a reader forever.  After [Stopped]
    the frame in progress may be lost: abandon the connection. *)

val write : Unix.file_descr -> string -> unit
(** Writes one frame (prefix + payload), looping over short writes.
    @raise Invalid_argument if the payload exceeds the 32-bit prefix.
    Unix errors ([EPIPE] on a dead peer) propagate to the caller. *)

val write_json : Unix.file_descr -> Obs.Json.t -> unit
(** [write] of the document's canonical print. *)

val discard : ?stop:(unit -> bool) -> reader -> int -> bool
(** Consumes and drops exactly [n] payload bytes, buffered ones first,
    so a connection can survive an {!Oversized} frame and stay
    synchronized on the next prefix.  [false] if EOF arrived first, or
    if a receive timeout expired with [stop] returning [true]. *)
