(** The physical wire set of the register-transfer-level bus model, as
    packed words.

    Six wire groups, each one integer word for the value visible during
    the present cycle and one for the value scheduled for the next: the
    address, byte-enable, write-data and read-data buses, the eleven
    control wires packed into one word (bit [Ec.Signals.ctrl_index c] is
    wire [c]), and the bus controller's internal one-hot slave select
    lines.  The falling-edge bus process writes next values through the
    setters, which mask to the group width; {!Diesel} then reads each
    group's [current lxor next] toggle word, and {!commit_all} makes the
    next values current — a six-word copy.  Nothing here counts
    transitions: the estimator does. *)

type t = private {
  mutable addr : int;  (** EB_A[35:2], 34 bits *)
  mutable addr_next : int;
  mutable be : int;  (** EB_BE, 4 bits *)
  mutable be_next : int;
  mutable wdata : int;  (** EB_WData, 32 bits *)
  mutable wdata_next : int;
  mutable rdata : int;  (** EB_RData, 32 bits *)
  mutable rdata_next : int;
  mutable ctrl : int;  (** the control wires, {!Ec.Signals.ctrl_count} bits *)
  mutable ctrl_next : int;
  mutable sel : int;  (** internal one-hot slave selects, [sel_width] bits *)
  mutable sel_next : int;
  sel_width : int;  (** one select line per slave *)
}

val create : n_slaves:int -> t
(** Every wire low.

    @raise Invalid_argument if [n_slaves] is outside 1..62. *)

(** {1 Driving next values} *)

val set_addr : t -> int -> unit
val set_be : t -> int -> unit
val set_wdata : t -> int -> unit
val set_rdata : t -> int -> unit
val set_sel : t -> int -> unit

val set_ctrl : t -> Ec.Signals.ctrl -> bool -> unit

val clear_ctrl : t -> int -> unit
(** [clear_ctrl t mask] drives low every control wire whose bit is set in
    [mask]. *)

val toggle :
  t -> addr:int -> be:int -> wdata:int -> rdata:int -> ctrl:int -> sel:int ->
  unit
(** Drives each group's next value to its current value [lxor] the
    given word, masked to the group's width: a recorded cycle replayed. *)

val commit_all : t -> unit

val reset : t -> unit
(** Every wire back to low, current and next. *)
