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
    reference. *)

(** {1 The layer-1 fold}

    One table, one cycle: the interpreted model below folds each cycle
    with it.  [Compile.Eval] prices k tables per plan class in its
    kernel, each lane with this fold's additions in this fold's order. *)

val fold :
  float array -> float array -> addr:int -> be:int -> wdata:int ->
  rdata:int -> ctrl:int -> int
(** [fold pj out ~addr ~be ~wdata ~rdata ~ctrl] stores in [out.(0)] the
    energy of a cycle whose groups toggled the set bits of these
    old-xor-new words under the per-wire energies [pj]
    ({!Power.Characterization.to_array}), and returns the set-bit count.
    Each group's sum starts from 0.0 and adds its set bits lowest first,
    and groups join in addr/be/wdata/rdata/ctrl order.
    @raise Invalid_argument if [pj] is shorter than
    {!Ec.Signals.count}, [out] is empty or a word has a bit beyond its
    group's width (34, 4, 32, 32, 11). *)

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
