(** Interrupt controller ("Interrupt system" of Figure 1).

    Sixteen level lines.  Peripherals raise a line through {!raise_line};
    software observes and acknowledges over the bus:
    - [0x0] PENDING: read the pending lines; writing 1-bits clears them;
    - [0x4] ENABLE: per-line interrupt enable mask;
    - [0x8] ACTIVE: read-only, [pending land enable].

    The CPU samples {!asserted} directly (the dedicated interrupt request
    wire, not a bus access). *)

type t

val create : ?kernel:Sim.Kernel.t -> Ec.Slave_cfg.t -> t

val slave : t -> Ec.Slave.t
val component : t -> Power.Component.t

val raise_line : t -> int -> unit
(** Peripheral side: latch line [n] pending.
    @raise Invalid_argument for a line outside [0, lines). *)

val asserted : t -> bool
(** True while any enabled line is pending (the CPU's irq input). *)

val pending : t -> int
val raised_total : t -> int

val reset : t -> unit
(** Pending/enable bits and counters back to the freshly created state. *)
