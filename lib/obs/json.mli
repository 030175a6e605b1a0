(** Minimal JSON tree, printer and parser.

    The codec of the service's wire frames, the Chrome trace exporter
    and the metrics snapshots: no external dependency, round-trips the
    documents this library emits.  Both directions cost per token rather
    than per byte: the printer copies each run of bytes that needs no
    escape in one blit, and the parser slices escape-free strings and
    sums plain integers in place. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val of_string : string -> (t, string) result
(** Strict parse of one document; [Error msg] carries the byte offset.

    The grammar is RFC 8259's.  A number is
    [-?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)?]: [+1], [01], [1.]
    and [.5] are errors.  Without fraction or exponent it is an [Int],
    or a [Float] when it does not fit one; otherwise a [Float].  A
    [\u] escape of a UTF-16 surrogate pair decodes to the pair's one
    4-byte UTF-8 code point, and a surrogate without its partner is an
    error.  Other bytes inside strings, raw control bytes and invalid
    UTF-8 included, are taken as they are. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other shapes. *)

val to_list_opt : t -> t list option
val string_opt : t -> string option
val number_opt : t -> float option
(** [Int] and [Float] both answer. *)

val int_opt : t -> int option
(** [Int], plus [Float] values that are exact small integers (a peer's
    encoder may not keep the distinction). *)

val bool_opt : t -> bool option

val equal : t -> t -> bool
(** Structural equality.  Floats compare by bit pattern, so NaN equals
    itself and [0.] differs from [-0.] — the equality a print/parse
    round-trip preserves. *)
