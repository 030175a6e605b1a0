(** Layer-2 energy model (paper section 3.3, "Layer 2 Energy Model").

    Energy estimation is split into an address-phase and a data-phase
    method; the bus process passes the whole transaction to the matching
    method when that phase finishes, so "the entire address phase for a
    burst read or write is calculated at once".  The transaction carries
    the data by pointer, so within-burst data-bus transitions are counted
    exactly; what the model cannot know, it assumes:

    - the bus state left behind by the {e previous} transaction ("it
      considers each transaction phase on its own but does not consider
      interactions between following transactions") — replaced by the
      boundary-toggle assumptions of {!params};
    - the cycle-level slave handshake ("does not allow an accurate count
      of transitions for control signals") — replaced by fixed per-phase
      and per-beat strobe pulse counts.

    Merged strobes and address locality make real traffic cheaper than
    these assumptions, which is the overestimation the paper reports
    (+14.7%).  The power interface only offers the energy-since-last-call
    method; sampling therefore lumps whole phases (Figure 6).

    A data lump is priced by the lane kernel (lib/power/lane_kernel.c),
    the routine compiled plans price their layer-2 classes with, so an
    interpreted run and a plan fold perform the same IEEE operations in
    the same order. *)

type params = {
  boundary_addr_toggles : float;
      (** assumed address-bus toggles at an address-phase start *)
  boundary_data_toggles : float;
      (** assumed data-bus toggles at the first beat of a data phase *)
  attr_toggles : float;
      (** assumed toggles of each attribute signal (Instr, Write, Burst)
          and of the byte-enable bus per transaction *)
  strobe_pulses_per_phase : float;
      (** AValid and ARdy transition count per address phase *)
  strobe_pulses_per_beat : float;
      (** RdVal or WDRdy transition count per data beat *)
}

val default_params : params

(** {1 The layer-2 lanes and lumps}

    One estimator, two executors: the interpreted model below holds a
    one-lane value, [Compile.Eval] a k-lane value per plan, and both
    price data lumps with the same routine, the lane kernel's layer-2
    entry (lib/power/lane_kernel.c): the boundary toggles plus the
    inter-beat toggle counts in beat order, times the data-bit average,
    plus the strobe pulses times the control-bit average.  The
    interpreter prices each data phase there as a one-lump class at one
    lane. *)

type lanes = private {
  addr_lump : float array;
      (** the address-phase lump, the same for every txn *)
  boundary_data_toggles : float array;
  strobe_pulses_per_beat : float array;  (** the data-lump {!params} *)
  avg_rdata : float array;
  avg_wdata : float array;
  avg_ctrl : float array;  (** per-bit averages of the table *)
}
(** k points' lump operands, one float array per operand, lane [l] at
    index [l]. *)

val lanes : (Power.Characterization.t * params) array -> lanes

type t

val create :
  ?record_profile:bool -> ?params:params -> Power.Characterization.t -> t

val set_params : t -> params -> unit
(** Replaces the boundary-assumption parameters for energy estimated from
    now on; already-accumulated energy is untouched.  The hierarchical
    calibration of adaptive runs uses this to re-derive the lump
    constants from refined windows mid-run (DESIGN.md section 12). *)

val address_phase_pj : t -> Ec.Txn.t -> float
(** Lump estimate of one finished address phase (also accumulates it). *)

val data_phase_pj : t -> Ec.Txn.t -> float
(** Lump estimate of one finished data phase; reads the transferred data
    through the transaction's pointer. *)

val end_cycle : t -> unit
(** Advances the meter clock (layer 2 is still clocked; lumps land in the
    cycle their phase completes). *)

val total_pj : t -> float

val meter : t -> Power.Meter.t
(** The layer-2 power interface has a single method, energy since the
    last call: {!Power.Meter.since_last_call_pj} on this meter. *)

val lumps : t -> int
(** Phase lumps estimated so far (address plus data phases): the
    layer-2 estimator's unit of work, counted on every run. *)

val reset : t -> unit
(** Restores the parameters passed to {!create} (undoing any in-run
    {!set_params} calibration), detaches any observer and clears the
    meter and the lump count. *)

(** {1 Compilation taps} *)

type event =
  | Addr_lump of Ec.Txn.t  (** an address phase finished this cycle *)
  | Data_lump of Ec.Txn.t
      (** a data phase finished this cycle; the transaction's data is
          live, so inter-beat Hamming distances can be taken exactly *)
  | Cycle  (** a falling edge closed (every cycle, lumps or not) *)

val set_observer : t -> (event -> unit) option -> unit
(** Attaches ([Some]) or detaches ([None]) the trace compiler's
    lump-stream tap.  The taps carry no floats — an observed run is
    bit-identical to an unobserved one. *)
