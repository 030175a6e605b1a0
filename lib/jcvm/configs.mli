(** HW/SW interface configurations explored in the paper's section 4.3.

    "During HW/SW interface evaluation we change the address map,
    organization of these registers and used bus transactions to access
    them."  A configuration decides how the operand-stack interface calls
    are translated into bus transactions towards the hardware stack's
    special function registers:

    - access {e width}: 8-bit (two accesses per short), 16-bit (one
      access), or 32-bit with software packing (one access per {e two}
      shorts when traffic allows);
    - register {e organization}: dedicated push/pop data registers versus
      a shared data register plus a command register (two transactions per
      operation);
    - {e address map}: registers packed at consecutive word addresses
      versus spread across a wide SFR window (more address-bus toggling
      per access). *)

type reg_org =
  | Dedicated  (** write DATA pushes, read DATA pops *)
  | Shared_cmd_data  (** write DATA then CMD=push; CMD=pop then read DATA *)

type t = {
  name : string;
  width : Ec.Txn.width;
  reg_org : reg_org;
  base : int;  (** SFR window base address *)
  stride : int;  (** byte distance between consecutive registers *)
  packed32 : bool;  (** 32-bit accesses carry two shorts *)
}

val make :
  name:string ->
  ?width:Ec.Txn.width ->
  ?reg_org:reg_org ->
  ?base:int ->
  ?stride:int ->
  ?packed32:bool ->
  unit ->
  t
(** Defaults: 16-bit dedicated registers at {!Soc.Platform.Map.sfr_base}
    with stride 4, no packing.
    @raise Invalid_argument on [packed32] without 32-bit width, a stride
    below 4, or a misaligned base. *)

(** Register indices (multiply by [stride] for the byte offset). *)

val data_reg : int  (** 0 *)

val cmd_reg : int  (** 1, shared organization only *)

val count_reg : int  (** 2 *)

val top_reg : int  (** 3 *)

val window_size : t -> int
(** Bytes of SFR window the configuration occupies. *)

val cmd_push : int
val cmd_pop : int

val standard : t list
(** The design space evaluated by the exploration experiment. *)
