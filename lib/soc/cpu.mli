(** In-order blocking CPU master (stand-in for the MIPS 4Ksc core).

    Runs {!Isa} programs by fetching every instruction over the bus
    (instruction reads) and issuing loads/stores as data transactions,
    through the abstract {!Ec.Port.t} — so the same core drives the RTL,
    layer-1 and layer-2 bus models.  The core is not pipelined, but it
    issues the next instruction fetch in the same cycle it retires the
    previous transaction, producing back-to-back bus traffic on fast
    slaves.

    The core registers its process on the rising clock edge.  It stops on
    [halt], on a bus error, on a misaligned access or on an illegal
    opcode; the cause is reported by {!fault}. *)

type fault =
  | Bus_error of int  (** faulting address *)
  | Misaligned of int
  | Illegal_instruction of int  (** instruction word *)

type t

val create :
  kernel:Sim.Kernel.t ->
  port:Ec.Port.t ->
  ?pc:int ->
  ?store_buffer:bool ->
  ?irq:(unit -> bool) ->
  unit ->
  t
(** [store_buffer] (default true) posts stores through a one-entry write
    buffer so they overlap the following instruction fetches, as on the
    real core; loads still drain the buffer first (conservative
    load-after-store ordering).  With [store_buffer:false] every memory
    operation blocks the core.

    [irq] is sampled at instruction boundaries; when it holds, interrupts
    are enabled ([ei]) and no interrupt is already in service, the core
    saves the pc to EPC and jumps to the vector at 0x40.  The
    handler returns with [eret]. *)

val halted : t -> bool
(** True after [halt] or a fault. *)

val fault : t -> fault option
val reg : t -> int -> int

val instructions : t -> int
(** Instructions retired. *)

val loads : t -> int
val stores : t -> int

val interrupts_taken : t -> int
val in_interrupt : t -> bool

val run_to_halt : t -> kernel:Sim.Kernel.t -> ?max_cycles:int -> unit -> int
(** Steps the kernel until the core halts; returns the cycles consumed.
    @raise Failure if [max_cycles] (default 2_000_000) elapse first. *)

val reset : t -> pc:int -> unit
(** Architectural state (registers, store buffer, interrupt state, fault,
    counters, id supply) back to the freshly created state, with the
    program counter pointed at [pc].  The port, interrupt wiring and
    kernel registration are kept for session reuse. *)
