(** The target smart-card platform of the paper's Figure 1.

    Instantiates every slave of the architecture — 256 KiB program ROM,
    8 KiB scratchpad RAM, 32 KiB EEPROM, 64 KiB FLASH, UART, dual 16-bit
    timer, true random number generator and the crypto coprocessor — with
    their memory map, wait states, access rights and component energy
    models.  The bus model (RTL, layer 1 or layer 2) is attached
    separately; see {!Core.System}. *)

(** Byte addresses of the memory map. *)
module Map : sig
  val rom_base : int
  val rom_size : int  (** 256 KiB, read/execute *)

  val ram_base : int
  val ram_size : int  (** 8 KiB scratchpad, read/write/execute *)

  val eeprom_base : int
  val eeprom_size : int  (** 32 KiB, read/write, slow writes *)

  val flash_base : int
  val flash_size : int  (** 64 KiB, read/execute *)

  val uart_base : int
  val timer_base : int
  val trng_base : int
  val crypto_base : int

  val sfr_base : int
  (** Free special-function-register window used by the Java Card VM
      refinement experiments. *)

  val dma_base : int
  val intc_base : int
end

(** Interrupt line assignment of the platform. *)

val dma_irq_line : int

type t

val create :
  kernel:Sim.Kernel.t ->
  ?seed:int ->
  ?extra_slaves:Ec.Slave.t list ->
  ?peripheral_clock:[ `Running | `Gated ] ->
  unit ->
  t
(** [seed] derives the TRNG and crypto-mask random streams (vary it when
    simulating many card instances); [extra_slaves] join the address map
    (e.g. the JCVM stack SFRs).

    [peripheral_clock] (default [`Running]) picks the clock tree the
    peripherals and memories account on.  On [`Running] they share
    [kernel]: a peripheral's process is parked while it has no work and
    rejoins the cycle loop when a register write or an interrupt line
    gives it some, the memories run no process at all, and idle cycles
    are derived from the kernel's edges ({!Power.Component}) — so an
    idle platform costs nothing per cycle and its counts are those of a
    component ticked on every edge.  [`Gated] puts them on a private
    kernel that never steps — the power-aware card's clock gating:
    timers do not count, the UART does not shift, every cycle count
    stays 0 — while every slave still answers bus transactions
    normally. *)

val rom : t -> Memory.t
val ram : t -> Memory.t
val eeprom : t -> Memory.t
val flash : t -> Memory.t
val uart : t -> Uart.t
val intc : t -> Intc.t
val dma : t -> Dma.t

val connect_bus : t -> Ec.Port.t -> unit
(** Attaches the bus-mastering peripherals (the DMA engine) to the bus.
    {!Core.System.create} calls this after the bus model exists; DMA
    transfers started before fail with the engine's error flag. *)

val irq_asserted : t -> bool
(** The interrupt request wire towards the CPU ({!Intc.asserted}). *)

val decoder : t -> Ec.Decoder.t
(** Decoder over all slaves, ready for any bus model. *)

val components : t -> Power.Component.t list
val components_energy_pj : t -> float
(** Energy of all peripheral component models (the extension announced in
    the paper's conclusion), excluding the bus itself. *)

val load_program : t -> Asm.program -> unit
(** Loads an image into ROM, RAM, EEPROM or FLASH depending on origin.
    @raise Invalid_argument when the origin falls in no memory. *)

val reset : t -> unit
(** Every memory and peripheral back to the freshly created state (the
    TRNG and crypto mask streams replay their creation seeds; the DMA
    keeps its bus connection).  Extra slaves passed to {!create} are the
    caller's to reset. *)
