(** The master adapter of the refined Java Card model (Figure 7b).

    "The bytecode interpreter invokes the same interface functions as in
    the pure functional model.  The master adapter translates them into
    bus transactions." — each push/pop becomes one or more blocking bus
    transactions towards the {!Hw_stack} special function registers,
    according to the interface {!Configs.t}; the adapter steps the
    simulation kernel until each transaction completes, bridging the
    untimed interpreter to the timed bus.

    Software-side optimizations the configurations enable:
    - packed 32-bit transfers buffer one pushed short and move two per
      transaction (and symmetrically for pops);
    - a pop that hits the push buffer is served without bus traffic. *)

type t

val create : kernel:Sim.Kernel.t -> port:Ec.Port.t -> Configs.t -> t

val ops : t -> Stack_intf.ops
(** The operand-stack interface to hand to the interpreter.  [reset]
    clears the adapter buffers only (the hardware stack is expected
    fresh); [depth] is tracked locally, without bus traffic. *)

val flush : t -> unit
(** Forces a buffered packed push out to the hardware. *)

val transactions : t -> int
(** Bus transactions issued so far. *)
