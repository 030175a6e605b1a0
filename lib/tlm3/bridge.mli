(** Layer-3 to cycle-accurate bridge.

    The layer taxonomy's stated use of layer 1 includes "bridging layer
    three or layer two components to cycle accurate systems"; this bridge
    is that adapter: it splits an arbitrary-size layer-3 message into
    legal EC transactions (4-word bursts plus single words), pushes them
    through a timed port, and blocks the caller while the clock advances
    — so an untimed component can talk to any of the timed bus models and
    be priced by their energy models. *)

type t

val create : kernel:Sim.Kernel.t -> port:Ec.Port.t -> t

val read : t -> addr:int -> words:int -> Channel.outcome * int
(** [(outcome, cycles)]; cycles is the simulated time the message took. *)

val write : t -> addr:int -> int array -> Channel.outcome * int

val transact : t -> Ec.Txn.t -> Ec.Port.poll
(** Blocking replay of one prepared EC transaction through the timed
    port: retries submission until accepted, steps the clock to
    completion, retires, and returns the outcome.  This is the primitive
    behind layer-3 trace replay ([Core.Runner.replay_bridged], which
    [run_trace] and [compile_trace] use at [L3]; DESIGN.md section
    17.4): a trace's transactions pushed one by one keep their widths,
    kinds and bursts, but issue serially — the message layer has no
    pipelining, which is exactly its timing abstraction. *)

val idle : t -> cycles:int -> unit
(** Steps the shared clock through an idle gap (trace-gap cycles between
    replayed messages). *)

val transactions : t -> int
(** Timed bus transactions the bridge has issued. *)
