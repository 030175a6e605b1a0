(** Per-cycle bus value recorder.

    Samples the committed values of the address, write-data and read-data
    buses on every rising edge (i.e. the values the wires settled to in
    the previous cycle).  Feed the sequences to {!Power.Coding} to judge
    bus coding schemes on real traffic. *)

type t

val create : kernel:Sim.Kernel.t -> Wires.t -> t

val addr_values : t -> int array
(** Word-address bus values, one per sampled cycle. *)

val wdata_values : t -> int array
val rdata_values : t -> int array
