(** Memory slaves: ROM, scratchpad RAM, EEPROM and FLASH.

    A byte-addressed backing store behind an EC slave interface,
    little-endian within a word, with an attached component energy model
    (per-access plus idle/active cycle energies).  Wait states and access
    rights live in the slave configuration and are enforced by the bus
    models, not here. *)

type t

val create :
  ?kernel:Sim.Kernel.t ->
  ?component:Power.Component.params ->
  Ec.Slave_cfg.t ->
  t
(** Passing [kernel] gives the component its cycles: a cycle is active
    when the memory was accessed since the previous rising edge.  The
    memory reserves a bodyless rising-edge slot ({!Sim.Kernel.slot}) and
    marks the edge each access counts at, so it runs no per-cycle process. *)

val slave : t -> Ec.Slave.t
val cfg : t -> Ec.Slave_cfg.t
val component : t -> Power.Component.t

(** Backdoor access (no bus traffic, no energy), for loading images and
    checking results in tests. *)

val peek8 : t -> addr:int -> int
val poke32 : t -> addr:int -> int -> unit
val peek32 : t -> addr:int -> int

val load_words : t -> addr:int -> int array -> unit
val load_program : t -> Asm.program -> unit
(** @raise Invalid_argument if the image does not fit the mapped range. *)

val reads : t -> int
val writes : t -> int

val reset : t -> unit
(** Restores the creation state: contents zeroed (only the written byte
    range is re-filled, tracked by dirty watermarks), access counters and
    the power component cleared.  Reload any image afterwards. *)
