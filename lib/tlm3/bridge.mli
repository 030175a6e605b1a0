(** Layer-3 to cycle-accurate bridge.

    The layer taxonomy's stated use of layer 1 includes "bridging layer
    three or layer two components to cycle accurate systems"; this bridge
    is that adapter for one message at a time: it splits an
    arbitrary-size layer-3 message into legal EC transactions (4-word
    bursts plus single words) and drives each through a timed port with
    {!Ec.Port.transact}, which blocks the caller while the clock
    advances — so an untimed component can talk to any of the timed bus
    models and be priced by their energy models.  Layer-3 trace replay
    does not go through this module: [Core.Runner] pushes a trace's
    transactions straight through {!Ec.Port.transact} on the layer-2
    carrier (DESIGN.md section 17.4). *)

type t

val create : kernel:Sim.Kernel.t -> port:Ec.Port.t -> t

val read : t -> addr:int -> words:int -> Channel.outcome * int
(** [(outcome, cycles)]; cycles is the simulated time the message took. *)

val write : t -> addr:int -> int array -> Channel.outcome * int

val transactions : t -> int
(** Timed bus transactions the bridge has issued. *)
