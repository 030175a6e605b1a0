(** Bus transaction traces.

    The paper's second verification step traces the bus transactions of an
    assembly test program running on the register-transfer model and
    replays them as input sequences for the transaction-level models.  A
    trace item is a transaction description plus the idle gap (in cycles)
    between the completion of the previous item's issue opportunity and
    this one's. *)

type item = { gap : int; txn : Txn.t }
type t = item list

val item : ?gap:int -> Txn.t -> item

val instantiate : Txn.Id_gen.gen -> item -> item
(** Fresh copy with a new id and, for reads, a cleared data array, so one
    trace can be replayed into several models independently. *)

val total_txns : t -> int
val total_beats : t -> int

val to_lines : t -> string list
(** One-line-per-item text serialization. *)

val of_lines : string list -> t
(** Inverse of {!to_lines}; blank lines and [#] comments are skipped.
    @raise Failure naming the first malformed line, by its 1-based index
    in [lines] — including a line whose transaction {!Txn.create} or
    gap {!item} would refuse; no other exception escapes. *)

val save : string -> t -> unit
val load : string -> t
