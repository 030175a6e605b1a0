(** Bus coding exploration over simulated traffic.

    An architecture-exploration extension in the spirit of the bus-coding
    work the paper's related-work section surveys: record the address,
    write-data and read-data bus value sequences of a workload on the
    gate-level model, then evaluate bus-invert and Gray coding offline
    with {!Power.Coding}, including the estimated energy per scheme. *)

type bus_row = {
  bus : string;  (** "address", "write data", "read data" *)
  width : int;
  report : Power.Coding.report;
  plain_pj : float;  (** transition count x characterized pJ/transition *)
  best_scheme : string;
  best_pj : float;
}

type t = {
  workload : string;
  cycles : int;
  rows : bus_row list;
}

val run_program : ?name:string -> Soc.Asm.program -> t
(** Runs the program on an instrumented gate-level system. *)

val render : t -> string
