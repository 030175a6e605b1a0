(** Level-selection policies for mixed-level simulation.

    The policy decides which abstraction level of the hierarchy simulates
    the next window of a run.  Decisions are taken at switch
    opportunities — window boundaries where the bus has been quiesced —
    from an {!observation} of the run so far.  Three shapes:

    - {!constant}: one level for the whole run.  The degenerate case; the
      engine pins it to the corresponding pure run bit-for-bit.
    - {!script}: an explicit [(txn_count, level)] schedule, for
      reproducible experiments ("simulate the first 1000 transactions at
      layer 2, the next 200 at layer 1, ...").
    - {!triggered}: a base level refined by triggers — address ranges
      (e.g. DPA-sensitive peripherals), cycle windows, and
      transaction-rate or energy-rate thresholds evaluated against the
      previous window. *)

type trigger =
  | Addr_range of { lo : int; hi : int; level : Level.t }
      (** Fires while the next transaction's address lies in [\[lo, hi)]. *)
  | Cycle_window of { lo : int; hi : int; level : Level.t }
      (** Fires while the cumulative cycle count lies in [\[lo, hi)].
          Evaluated at window boundaries only, so its edges are as sharp
          as the surrounding windows ([max_window] bounds the slack). *)
  | Txn_window of { lo : int; hi : int; level : Level.t }
      (** Fires while the next transaction's index lies in [\[lo, hi)] —
          a position-scheduled refinement, e.g. a warm-up window. *)
  | Every of { period : int; length : int; level : Level.t }
      (** Fires while [txn_index mod period < length]: periodic
          refinement sampling, the duty-cycled probe that keeps an
          adaptive run's fast windows calibrated. *)
  | Txn_rate_above of { txns_per_kcycle : float; level : Level.t }
      (** Fires when the previous window's transaction rate exceeded the
          threshold (transactions per 1000 cycles). *)
  | Energy_rate_above of { pj_per_cycle : float; level : Level.t }
      (** Fires when the previous window's bus power exceeded the
          threshold. *)

type observation = {
  txn_index : int;  (** index of the next transaction in the trace *)
  addr : int;  (** its byte address *)
  cycle : int;  (** cumulative cycles simulated so far *)
  txns_per_kcycle : float;  (** previous window's transaction rate *)
  pj_per_cycle : float;  (** previous window's bus power *)
}

type t = private
  | Constant of Level.t
  | Script of (int * Level.t) list
  | Triggered of {
      base : Level.t;
      triggers : trigger list;
      min_window : int;
      max_window : int option;
    }

val constant : Level.t -> t

val script : (int * Level.t) list -> t
(** @raise Invalid_argument on an empty script or a non-positive count.
    Past the scripted transactions the last level holds. *)

val triggered :
  ?min_window:int -> ?max_window:int -> base:Level.t -> trigger list -> t
(** First matching trigger wins; [base] applies when none fires.
    [min_window] (default 1) is the minimum window length in
    transactions, bounding switch overhead; [max_window] (default
    unbounded) forces a switch opportunity — and thus a re-evaluation of
    cycle- and rate-triggers — at least every that many transactions.
    @raise Invalid_argument if [min_window < 1] or
    [max_window < min_window]. *)

val for_exploration :
  ?warmup:int ->
  ?period:int ->
  ?refine:int ->
  unit ->
  t
(** The exploration preset (DESIGN.md section 12): layer 2 as the base
    sweep level, refined to layer 1

    - for the first [warmup] transactions (default 512) — the
      calibration window that seeds the layer-2 lump constants;
    - for [refine] transactions (default 192) every [period] (default
      768) — periodic refinement sampling that keeps the calibration
      tracking the workload;
    - whenever the previous window's bus power exceeded 8.0 pJ/cycle —
      the paper's "sensitive window" rule.

    Windows span 64 to 512 transactions, which bounds switch overhead
    exactly as in {!triggered}.  The constants are tuned on the section
    4.3 JCVM sweep: about 1.4x faster than a pure layer-1 sweep with the
    spliced energy inside the default budgets (EXPERIMENTS.md).
    @raise Invalid_argument if [warmup < 0], [period < 1] or [refine]
    lies outside [\[0, period]]. *)

val decide : t -> observation -> Level.t

val levels : t -> Level.t list
(** The distinct levels [t] can decide, finest first — the front-ends a
    mixed-level session needs. *)

val needs_cycle : t -> bool
(** Whether any decision depends on the current cycle (a
    [Cycle_window] trigger exists) — callers on hot paths skip
    reading the clock otherwise. *)

val compile_window :
  t ->
  txns_per_kcycle:float ->
  pj_per_cycle:float ->
  txn_index:int ->
  addr:int ->
  cycle:int ->
  Level.t
(** [compile_window t ~txns_per_kcycle ~pj_per_cycle] partially
    evaluates the policy for one window: rate triggers compare against
    the {e previous} window's rates, so their verdicts are fixed for the
    whole window and the returned function decides from the three
    per-transaction integers alone — no observation record, no float
    compares on the per-transaction path.  Agrees with {!decide} on
    every observation carrying the same rates. *)

val to_string : t -> string
