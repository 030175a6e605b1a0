(** Map of the EC interface signals.

    All signals are unidirectional; read and write use separate data buses
    with their own error indications.  This enumeration is the common
    vocabulary of the RTL reference model (one wire set per signal), the
    layer-1 power model (old/new value per signal) and the power
    characterization tables (average energy per transition per signal). *)

(** Control wires of the interface (single bit each).  Master driven:
    [Avalid] (address valid), [Instr] (instruction fetch), [Write],
    [Burst], [Bfirst], [Blast].  Slave/controller driven: [Ardy] (address
    accepted), [Rdval] (read data valid), [Wdrdy] (write data accepted),
    [Rberr] and [Wberr] (read/write bus error). *)
type ctrl =
  | Avalid
  | Instr
  | Write
  | Burst
  | Bfirst
  | Blast
  | Ardy
  | Rdval
  | Wdrdy
  | Rberr
  | Wberr

(** One interface wire.  [Addr i] is address bit [35 - .. 2]+[i] of the
    word-address bus EB_A[35:2] (34 wires), [Be i] a byte enable,
    [Wdata i]/[Rdata i] a write/read data bit. *)
type id = Addr of int | Be of int | Wdata of int | Rdata of int | Ctrl of ctrl

val addr_wires : int  (** 34 *)

val be_wires : int  (** 4 *)

val data_wires : int  (** 32 *)

val count : int
(** Total number of interface wires. *)

val all : id list
(** Every wire, in dense index order. *)

val all_ctrl : ctrl list
val ctrl_count : int

val ctrl_index : ctrl -> int
(** Position of a control wire in {!all_ctrl}, in [0, ctrl_count). *)

val index : id -> int
(** Dense index in [0, count). *)

val of_index : int -> id
val to_string : id -> string

val default_capacitance_ff : id -> float
(** Effective switched capacitance per wire in femtofarads, the physical
    basis of the default power characterization (long, heavily loaded
    address wires; somewhat lighter data wires; short control wires). *)

val vdd : float
(** Core supply voltage in volts (1.8 V smart-card core). *)
