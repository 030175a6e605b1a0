(** True random number generator peripheral (Figure 1), deterministic in
    simulation through an explicit seed.

    Register map: [0x0] DATA (reading consumes the current word; a fresh
    one becomes ready after the refill delay), [0x4] STATUS (bit0 ready),
    [0x8] CTRL (bit0 enable).  Reading DATA while not ready returns the
    stale word without consuming entropy. *)

type t

val create :
  kernel:Sim.Kernel.t ->
  seed:int ->
  ?refill_cycles:int ->
  Ec.Slave_cfg.t ->
  t
(** [refill_cycles] defaults to 8. *)

val slave : t -> Ec.Slave.t
val component : t -> Power.Component.t
val words_delivered : t -> int

val reset : t -> unit
(** Reseeds the generator with the creation seed and restores every
    register, so a reused TRNG delivers the exact word sequence of a
    fresh one. *)
