(** Dual 16-bit timer block (T0/T1 of Figure 1).

    Each channel occupies 16 bytes ([channel * 0x10] from the base):
    - [0x0] COUNT: current value (writable, to shorten test periods);
    - [0x4] RELOAD: value loaded on overflow in auto-reload mode;
    - [0x8] CTRL: bit0 enable, bit1 auto-reload;
    - [0xC] FLAGS: bit0 overflow, write 1 to clear.

    Enabled channels count up each clock cycle; on wrapping past 0xFFFF
    the overflow flag is set and, in auto-reload mode, COUNT restarts from
    RELOAD. *)

type t

val create :
  kernel:Sim.Kernel.t ->
  ?irq:(int -> unit) ->
  Ec.Slave_cfg.t ->
  t
(** [irq ch] fires on every overflow of channel [ch]. *)

val slave : t -> Ec.Slave.t
val component : t -> Power.Component.t

val count : t -> int -> int
(** Backdoor: current COUNT of a channel. *)

val overflowed : t -> int -> bool

val reset : t -> unit
(** Both channels and the power component back to the freshly created
    state. *)
