(** Synthetic workload generators.

    Random but reproducible traffic for characterization (the training run
    behind {!Runner.characterize}), for the simulation-performance
    measurements of Table 3 ("all combinations between single read, single
    write, burst read, and burst write transactions"), and for
    property-based tests. *)

val random_trace :
  rng:Sim.Rng.t ->
  n:int ->
  ?max_gap:int ->
  ?write_ratio:float ->
  ?burst_ratio:float ->
  ?subword_ratio:float ->
  unit ->
  Ec.Trace.t
(** [n] transactions over the Figure-1 memory map, error-free by
    construction (writes only target writable slaves, fetches executable
    ones).  Ratios default to 0.4 writes, 0.25 bursts, 0.2 sub-word
    singles; a fixed 0.2 of reads are instruction fetches; gaps uniform
    in [0, max_gap] (default 3). *)

val characterization_trace : Ec.Trace.t
(** The standard training workload (seeded, 2000 transactions). *)

val table3_trace : n:int -> Ec.Trace.t
(** Deterministic mix cycling through every ordered pair of {single read,
    single write, burst read, burst write}, zero gaps — the Table 3
    stimulus. *)

val mixed_phase_trace :
  ?phase:int -> ?sensitive_every:int -> n:int -> unit -> Ec.Trace.t
(** The adaptive-run stimulus: Table-3 bulk traffic on ROM/RAM in phases
    of [phase] transactions (default 256), with every
    [sensitive_every]-th phase (default 8th) redirected to the EEPROM —
    the DPA-sensitive window an address-range policy refines to a
    cycle-accurate level.  Deterministic, zero gaps. *)

val dma_trace : words:int -> ?src:int -> unit -> Ec.Trace.t
(** Burst-heavy block-move traffic, the DMA engine's bus footprint:
    {!Soc.Dma.descriptor_trace} from [src] (default FLASH) to RAM.  Point
    [src] into {!Contention.far_window} to send the read half across a
    bridged fabric. *)

val crypto_trace : blocks:int -> unit -> Ec.Trace.t
(** Register-rhythm traffic, the crypto driver's bus footprint:
    {!Soc.Crypto.block_trace} against the platform's coprocessor
    registers — single-word accesses separated by the engine latency,
    the opposite contention profile to {!dma_trace}. *)
