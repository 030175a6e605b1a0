(** EC interface bus transactions.

    The EC interface (the paper's target, MIPS EC spec rev 1.05) carries
    36-bit byte addresses and 32-bit data over separate unidirectional read
    and write buses.  A transaction is a single transfer or a burst of four
    words, of one of the merge-pattern widths 8/16/32 bit (sub-word widths
    apply to single transfers only). *)

type direction = Read | Write
type kind = Instruction | Data

type width = W8 | W16 | W32
(** Merge patterns defined by the EC interface specification. *)

(** Outstanding-transaction category: the EC interface limits the core to
    four outstanding burst instruction reads, four burst data reads and
    four burst writes. *)
type category = Cat_instr_read | Cat_data_read | Cat_write

(** Bus state returned by the non-blocking interfaces: [Request] means the
    request has just been accepted, [Wait] that it is in progress, [Ok]
    that it finished, [Error] indicates a bus error. *)
type bus_state = Request | Wait | Ok | Error

type t = private {
  id : int;
  kind : kind;
  dir : direction;
  width : width;
  addr : int;  (** byte address, 36 bit *)
  burst : int;  (** number of beats: 1, or 4 for bursts *)
  data : int array;  (** [burst] words: write payload, or read results *)
}

val create :
  id:int ->
  kind:kind ->
  dir:direction ->
  width:width ->
  addr:int ->
  burst:int ->
  ?data:int array ->
  unit ->
  t
(** Builds a well-formed transaction.

    @raise Invalid_argument if the combination violates the EC rules:
    burst not 1 or 4, sub-word burst, address out of 36-bit range or
    misaligned for the width, instruction writes, or write payload length
    not matching [burst]. *)

val renumber : id:int -> t -> t
(** [renumber ~id txn] is [txn] under a new [id] with a payload of its
    own: a copy of the write data, or fresh zeroed read results.  No
    re-validation — [txn] was validated when it was created. *)

val single_read : id:int -> ?kind:kind -> ?width:width -> int -> t
(** [single_read ~id addr] is a 32-bit single data read by default. *)

val single_write : id:int -> ?width:width -> int -> value:int -> t
val burst_read : id:int -> ?kind:kind -> int -> t
val burst_write : id:int -> int -> values:int array -> t

val category : t -> category
val bytes_per_beat : t -> int
val beat_addr : t -> int -> int
(** [beat_addr t i] is the byte address of beat [i], [0 <= i < t.burst]. *)

val byte_enables : t -> int -> int
(** [byte_enables t i] is the 4-bit lane mask driven during beat [i],
    derived from width and address as per the merge patterns. *)

val set_beat : t -> int -> int -> unit
(** [set_beat t i v] stores read-result word [v] for beat [i]. *)

val width_bits : width -> int
val pp : Format.formatter -> t -> unit
val equal_payload : t -> t -> bool
(** Structural equality ignoring [id]. *)

(** Monotonic transaction id supply (one per master). *)
module Id_gen : sig
  type gen

  val create : unit -> gen
  val fresh : gen -> int

  val reset : gen -> unit
  (** Restart the supply at its creation point, so a reused master hands
      out the exact id sequence of a fresh one. *)
end

val max_addr : int
(** Exclusive upper bound of the 36-bit address space. *)
