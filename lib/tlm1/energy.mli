(** Layer-1 energy model (paper section 3.3, Figure 5).

    "The power estimation unit is implemented as a dedicated module.  It
    defines for each bus interface signal a member variable for the new
    and old value.  The new values for all signals are set by the
    different bus phases.  The bus process calls the energy calculation
    method after the write phase" — at which point bit transitions are
    recognized and multiplied with the characterized average energy per
    transition per signal.

    The old/new values are the gate level's own wire image, {!Rtl.Wires},
    driven by the one cycle-accurate phase machine ({!Rtl.Bus}); this
    model only closes the cycle.  Only the EC interface signals are
    modelled: internal controller nets (decoder, select, FSM) and analog
    effects (slopes, coupling combinations) are invisible at this layer,
    which is precisely the systematic error against the gate-level
    reference.

    Each cycle is closed by one call of the lane kernel's layer-1 close
    ([lib/power/lane_kernel.c]), which reads the five toggle words from
    {!Rtl.Wires.t} by field position, prices them, counts the
    transitions and commits the wires.  Plan folds price the segment
    tables their captures recorded in the same file, with the same
    additions in the same order. *)

type t

val create : ?record_profile:bool -> Power.Characterization.t -> t

val end_cycle : t -> Rtl.Wires.t -> unit
(** The energy calculation method: counts the transitions between the
    current and next values of the five interface groups of the wires
    (address, byte enables, write data, read data, control), accumulates
    their energy, then commits the wires ({!Rtl.Wires.commit_all}). *)

val total_pj : t -> float

val meter : t -> Power.Meter.t
(** The paper's power interface: energy of the last cycle
    ({!Power.Meter.last_cycle_pj}) and energy since the last call
    ({!Power.Meter.since_last_call_pj}). *)

val transitions_total : t -> int

val transition_words : t -> int
(** Old-xor-new signal-group words compared so far, five per
    {!end_cycle}: the layer-1 estimator's unit of work, counted on every
    run. *)

val reset : t -> unit
(** The transition and word counts and the meter back to their created
    state (the per-bit energy tables are immutable; the wires are the
    bus's, reset by {!Bus.reset}). *)
