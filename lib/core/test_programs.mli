(** Assembly test programs.

    The paper's second verification step needed "an assembly language test
    program ... to initiate the required bus transactions"; these are our
    equivalents, written for the {!Soc.Isa} core against the Figure-1
    memory map.  Each value is assembler source accepted by
    {!Soc.Asm.assemble}; programs halt via [halt] and leave their results
    in RAM (and on the UART where noted). *)

val memcpy : words:int -> string
(** Copies [words] words from the ROM data table to RAM with a lw/sw
    loop; result: the copied block at the start of RAM. *)

val checksum : words:int -> string
(** Sums [words] ROM table words, stores the sum at RAM+0 and writes its
    low byte to the UART. *)

val bubble_sort : n:int -> string
(** Sorts an [n]-element descending table in RAM ascending (word ops). *)

val peripherals_tour : string
(** Touches every peripheral: timer start/stop, TRNG words, EEPROM
    read-modify-write, byte and halfword accesses, UART output. *)

val timer_interrupts : ticks:int -> string
(** Interrupt-driven: a timer-overflow handler at the vector counts
    [ticks] ticks into RAM while the main loop polls; exercises the
    interrupt controller, [ei]/[eret] and nested-interrupt masking. *)

val dma_copy : ?wfi:bool -> words:int -> burst:bool -> unit -> string
(** Stages [words] words in RAM, then lets the DMA engine copy them to a
    second RAM region (in 4-word bursts when [burst]).  The core waits by
    polling the engine's STATUS register, or — with [wfi] — by sleeping on
    the interrupt wire (no bus traffic while the engine works). *)

val bus_exercise : string
(** The combined "assembly test program" whose traced transactions feed
    Tables 1 and 2: mixes ALU work, sub-word accesses, bursts, EEPROM and
    FLASH wait states, store-buffer overlap and peripheral traffic. *)

val all : (string * string) list
(** Every program above under a stable name (with default sizes). *)
