(** Cryptographic coprocessor.

    The paper's motivation: "Algorithms with high computational effort,
    like cryptographic algorithms, are often supported by dedicated
    coprocessors", and the HW/SW interface to them is what the bus models
    evaluate.  This block implements a deliberately simple S-box cipher —
    each output byte is [sbox(input_byte xor key_byte)] — which is the
    textbook first-order DPA target used by the power-analysis study.

    Register map:
    - [0x00] KEY (write only; reads as 0);
    - [0x04] DIN: plaintext word;
    - [0x08] CTRL: bit0 start, bit1 masked-readout countermeasure;
    - [0x0C] STATUS: bit0 busy, bit1 done (cleared by a new start);
    - [0x10] DOUT: ciphertext word — with the countermeasure enabled it
      returns [ct xor m] for a fresh random [m] readable once at MASK;
    - [0x14] MASK: the mask paired with the last DOUT read.

    An operation takes [latency] cycles (default 16). *)

type t

val create :
  kernel:Sim.Kernel.t ->
  ?latency:int ->
  ?seed:int ->
  ?done_irq:(unit -> unit) ->
  Ec.Slave_cfg.t ->
  t
(** [done_irq] fires when an operation completes. *)

val slave : t -> Ec.Slave.t
val component : t -> Power.Component.t

val sbox : int -> int
(** The AES S-box, byte in, byte out. *)

val reference : key:int -> int -> int
(** Pure-function reference of the cipher (32-bit words). *)

val operations : t -> int

val reset : t -> unit
(** Reseeds the mask generator with the creation seed and clears all
    registers, state and counters. *)

val block_trace : base:int -> blocks:int -> Ec.Trace.t
(** The register rhythm of driving the coprocessor for [blocks]
    operations, as a replayable trace: KEY once, then per block DIN,
    CTRL-start, a 16-cycle gap (the engine's default latency),
    STATUS poll and DOUT read — all single-word register accesses with
    breathing room, the opposite traffic shape to
    {!Dma.descriptor_trace}.  Use it to model the driving CPU's bus
    footprint on an {!Ec.Fabric} port. *)
