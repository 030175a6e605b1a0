(** Direct-mapped instruction cache (the I-cache of Figure 1).

    Sits between the core and the bus as a port wrapper: instruction
    fetches that hit are answered from the cache in one cycle with no bus
    traffic; misses fetch the whole 16-byte line with one burst
    transaction.  Data accesses pass through untouched, except that
    writes invalidate a matching line (conservative self-modifying-code
    handling).

    This is the cache/bus interplay of Givargis-Vahid's parametrized
    cache-and-bus exploration (the paper's reference [1]): growing the
    cache trades component energy for bus energy; {!Core.Cache_study}
    quantifies the trade-off. *)

type t

val line_bytes : int
(** 16: one 4-word burst per fill. *)

val create :
  kernel:Sim.Kernel.t ->
  lines:int ->
  inner:Ec.Port.t ->
  unit ->
  t
(** [lines] must be a power of two.  The default component
    model charges a small energy per lookup and per line fill.

    @raise Invalid_argument on a non-power-of-two line count. *)

val port : t -> Ec.Port.t
(** The port to hand to the core. *)

val component : t -> Power.Component.t
val hits : t -> int
val misses : t -> int
val invalidations : t -> int

val flush : t -> unit
(** Invalidates every line. *)

val reset : t -> unit
(** Beyond {!flush}: also clears tags/data, in-flight fills, the id
    supply, the hit/miss/invalidation counters and the power component —
    the freshly created state, keeping inner port and kernel
    registration. *)
