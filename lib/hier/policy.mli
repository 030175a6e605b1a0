(** Level-selection policies for mixed-level simulation.

    The policy decides which abstraction level of the hierarchy simulates
    the next window of a run.  Decisions are taken at switch
    opportunities — window boundaries where the bus has been quiesced —
    from an {!observation} of the run so far.  A policy has one shape: a
    base level refined by an ordered list of triggers — address ranges
    (e.g. DPA-sensitive peripherals), transaction-index windows,
    periodic refinement and an energy-rate threshold evaluated against
    the previous window — within window-length bounds.

    {!constant} is the policy with no triggers: one level for the whole
    run, which the engine pins to the corresponding pure run
    bit-for-bit.  A fixed schedule ("the first 1000 transactions at
    layer 2, the next 200 at layer 1, ...") is a list of {!Txn_window}
    triggers over the last segment's level as base. *)

type trigger =
  | Addr_range of { lo : int; hi : int; level : Level.t }
      (** Fires while the next transaction's address lies in [\[lo, hi)]. *)
  | Txn_window of { lo : int; hi : int; level : Level.t }
      (** Fires while the next transaction's index lies in [\[lo, hi)] —
          a position-scheduled refinement, e.g. a warm-up window. *)
  | Every of { period : int; length : int; level : Level.t }
      (** Fires while [txn_index mod period < length]: periodic
          refinement sampling, the duty-cycled probe that keeps an
          adaptive run's fast windows calibrated. *)
  | Energy_rate_above of { pj_per_cycle : float; level : Level.t }
      (** Fires when the previous window's bus power exceeded the
          threshold. *)

type observation = {
  txn_index : int;  (** index of the next transaction in the trace *)
  addr : int;  (** its byte address *)
  pj_per_cycle : float;  (** previous window's bus power *)
}

type t = private {
  base : Level.t;  (** the level decided when no trigger fires *)
  triggers : trigger list;  (** first firing trigger wins *)
  min_window : int;  (** minimum window length in transactions *)
  max_window : int option;  (** forced switch opportunity, if any *)
}

val triggered :
  ?min_window:int -> ?max_window:int -> base:Level.t -> trigger list -> t
(** First matching trigger wins; [base] applies when none fires.
    [min_window] (default 1) is the minimum window length in
    transactions, bounding switch overhead; [max_window] (default
    unbounded) forces a switch opportunity — and thus a re-evaluation of
    the energy-rate trigger — at least every that many transactions.
    @raise Invalid_argument if [min_window < 1] or
    [max_window < min_window]. *)

val constant : Level.t -> t
(** [triggered ~base:level []]: no trigger ever asks for another level,
    so a run under it is one window. *)

val for_exploration : unit -> t
(** The exploration preset (DESIGN.md section 12): layer 2 as the base
    sweep level, refined to layer 1

    - for the first 512 transactions — the calibration window that
      seeds the layer-2 lump constants;
    - for 192 transactions every 768 — periodic refinement sampling that
      keeps the calibration tracking the workload;
    - whenever the previous window's bus power exceeded 8.0 pJ/cycle —
      the paper's "sensitive window" rule.

    Windows span 64 to 512 transactions, which bounds switch overhead
    exactly as in {!triggered}.  The constants are tuned on the section
    4.3 JCVM sweep: about 1.4x faster than a pure layer-1 sweep with the
    spliced energy inside the default budgets (EXPERIMENTS.md). *)

val decide : t -> observation -> Level.t

val levels : t -> Level.t list
(** The distinct levels [t] can decide, finest first — the front-ends a
    mixed-level session needs. *)

val compile_window :
  t -> pj_per_cycle:float -> txn_index:int -> addr:int -> Level.t
(** [compile_window t ~pj_per_cycle] partially evaluates the policy for
    one window: the energy-rate trigger compares against the {e
    previous} window's power, so its verdict is fixed for the whole
    window and the returned function decides from the two
    per-transaction integers alone — no observation record, no float
    compares on the per-transaction path.  Agrees with {!decide} on
    every observation carrying the same [pj_per_cycle]. *)

val to_string : t -> string
