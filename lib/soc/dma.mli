(** DMA engine: a second bus master.

    Offloads memory-to-memory copies from the core — the classic HW/SW
    trade-off the paper's interface-evaluation methodology is meant to
    judge (do it in software over the bus, or add hardware that uses the
    bus better, e.g. with bursts).

    Slave registers (word offsets from base):
    - [0x00] SRC: source byte address;
    - [0x04] DST: destination byte address;
    - [0x08] LEN: words to copy;
    - [0x0C] CTRL: bit0 start, bit1 use 4-word bursts;
    - [0x10] STATUS: bit0 busy, bit1 done (cleared by a new start).

    The engine issues its transfers through its own master port on the
    same bus, honouring the bus's outstanding limits; with bursts enabled
    it moves four words per transaction pair.  [done_irq] fires on
    completion. *)

type t

val create :
  kernel:Sim.Kernel.t ->
  ?done_irq:(unit -> unit) ->
  Ec.Slave_cfg.t ->
  t

val connect : t -> Ec.Port.t -> unit
(** [connect t port] attaches the engine's master side to a bus port.
    Must be called once before any transfer starts; transfers started
    unconnected fail with the engine's error flag. *)

val slave : t -> Ec.Slave.t
val component : t -> Power.Component.t

val busy : t -> bool
val words_copied : t -> int
val transfers_done : t -> int

val reset : t -> unit
(** Registers, engine state, id supply and counters back to the freshly
    created state.  The bus connection made by {!connect} is kept: it is
    part of the session wiring, not of the run state. *)

val descriptor_trace : src:int -> dst:int -> words:int -> Ec.Trace.t
(** The bus traffic one copy descriptor generates, as a replayable trace:
    read-from-[src] / write-to-[dst] pairs, four-word bursts with
    single-word transactions for the tail.  This is
    the DMA engine as a {e trace-driven requester}: feed it to a
    {!Trace_master} on an {!Ec.Fabric} port to model the engine
    contending with other masters without instantiating the register
    machinery. *)
