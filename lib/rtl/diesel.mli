(** Gate-level-style power estimator (substitute for the Diesel tool).

    Observes the RTL wire set once per cycle, just before the commit, and
    attributes energy per wire: slope-dependent edge energies from the wire
    capacitances, lateral coupling between adjacent wires of the same bus,
    internal decoder/mux/FSM net activity, address decoder glitches and
    static leakage.  The internal contributions are deliberately invisible
    to the transaction-level characterization — they are the systematic
    part of the layer-1 estimation error the paper measures.

    The per-cycle observation is one call of the lane kernel's gate-level
    close ([lib/power/lane_kernel.c]): it allocates nothing and costs in
    proportion to the toggles, not the wires.  For each {!Wires} group it
    walks the set bits of the [current lxor next] word lowest first,
    looking each edge up in a per-wire rise/fall table and each touched
    adjacent pair in a per-pair coupling table indexed by which of the two
    wires toggled and whether their new values differ; the control word
    gets self energy only, in ascending wire order; then it commits the
    wires.  It reads {!Wires.t} by field position, so that record's field
    order is part of the kernel's contract.  The original naive path (a
    movements array per group per cycle, each control wire its own group,
    capacitance math per toggle) is retained in OCaml behind
    [~reference:true] as the validation oracle; both paths make every
    accumulator's IEEE additions in the same order and are bit-for-bit
    equal. *)

type t

val create :
  ?params:Params.t -> ?record_profile:bool -> ?reference:bool -> Wires.t -> t
(** [reference] (default false) selects the naive per-bit observation
    path instead of the precomputed-table one. *)

val observe_and_commit : t -> unit
(** Performs the per-cycle estimation over the old/new values of every
    wire, then commits the wires and closes the meter cycle. *)

val total_pj : t -> float
(** Interface plus internal plus leakage energy. *)

val interface_pj : t -> float
(** Energy attributed to EC interface wires only (self + coupling). *)

val internal_pj : t -> float
(** Energy of internal nets, glitches and leakage. *)

val meter : t -> Power.Meter.t
(** Cycle-accurate meter over the total energy. *)

val per_signal_energy_pj : t -> float array
(** Accumulated interface energy per wire, indexed by
    {!Ec.Signals.index}. *)

val per_signal_transitions : t -> int array

val transitions_total : t -> int
(** Total committed interface wire transitions. *)

val words_scanned : t -> int
(** Wire-group words compared so far, old against new value: six per
    cycle (the five interface words and the select lines); the reference
    path compares sixteen, one per control wire.  With {!bits_visited},
    the estimator's unit of work, counted on every run. *)

val bits_visited : t -> int
(** Wire bits and adjacent wire pairs the observation stepped through so
    far: the toggled ones, and the pairs they touch, on the table path;
    every one on the reference path. *)

val characterize : name:string -> t -> Power.Characterization.t
(** Derives a characterization table from the accumulated measurement, the
    equivalent of the paper's Diesel-based flow. *)

val reset : t -> unit
(** Clears every accumulator (per-signal energies and transitions, the
    interface/internal totals, the work counts and the meter).  The precomputed energy
    tables and parameters are immutable and stay; the wires are owned by
    the bus and are reset by {!Bus.reset}. *)
