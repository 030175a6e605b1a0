(** Value-change-dump (VCD) waveform recording.

    Samples the RTL wire set every cycle and writes an IEEE 1364 VCD file
    viewable in GTKWave & co. — the debugging companion every bus-level
    investigation eventually needs.  One timestep per clock cycle. *)

type t

val create : kernel:Sim.Kernel.t -> Wires.t -> t
(** Registers a falling-edge sampler (after the bus process, so it sees
    each cycle's settled values). *)

val write : t -> string -> unit
(** [write t path] dumps everything recorded so far. *)
