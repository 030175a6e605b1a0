(** The power interface of the paper's bus models.

    A meter accumulates energy contributions during a cycle and exposes the
    two methods of the paper's power interface: the energy dissipated
    during the last clock cycle (layer 1 only, cycle-accurate profiling)
    and the energy dissipated since the last call (both layers).  A meter
    can optionally record the full per-cycle profile. *)

type t

val create : record_profile:bool -> unit -> t
(** Profile recording costs simulation speed, which Table 3 measures. *)

val add : t -> float -> unit
(** Contributes energy (pJ) to the cycle being simulated. *)

val in_cycle_acc : t -> float array
(** The unboxed in-cycle accumulator; index 0 is the energy of the cycle
    being simulated.  Estimator hot loops add into it directly because a
    cross-module [add] boxes its float argument on every call (no
    flambda); everyone else should use {!add}. *)

val end_cycle : t -> unit
(** Closes the current cycle: commits its energy to the totals and to the
    profile when recording. *)

val total_pj : t -> float
val cycles : t -> int

val last_cycle_pj : t -> float
(** Energy of the most recently closed cycle. *)

val since_last_call_pj : t -> float
(** Energy since the previous invocation of this method (or since
    creation).  Matches the paper's sampling interface of Figure 6. *)

val profile : t -> Profile.t option
(** The recorded per-cycle profile, when enabled. *)

val reset : t -> unit
(** Back to the freshly created state: accumulators, cycle count, the
    since-last-call marker and the recorded profile (if any) all clear. *)
