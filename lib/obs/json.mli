(** Minimal JSON tree, printer and parser.

    Just enough for the Chrome trace exporter and the metrics snapshots:
    no external dependency, round-trips the documents this library emits.
    The parser exists so tests and the benchmark can re-read an exported
    trace and check it structurally. *)

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
(** Strict parse of one document; [Error msg] carries the byte offset. *)

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
