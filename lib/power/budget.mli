(** Power-budget checks.

    The paper's first motivation: "the GSM standard limits the [current]
    to 10 mA at 5 V supply.  More critical is power consumption for
    contact-less smart cards that are supplied by RF field."  This module
    turns a simulated workload (energy + cycles + clock) into average
    current/power and judges it against the standard budgets. *)

type limit = {
  name : string;
  max_current_ma : float;
  supply_v : float;
}

val gsm_contact : limit
(** 10 mA at 5 V (GSM 11.11 class A). *)

val contactless_rf : limit
(** 5 mA at 3 V — a tight budget representative of ISO 14443 RF-field
    harvesting. *)

type verdict = {
  limit : limit;
  average_current_ma : float;
  average_power_mw : float;
  headroom_pct : float;  (** positive = under budget *)
  within : bool;
}

val average_current_ma :
  energy_pj:float -> cycles:int -> clock_hz:float -> supply_v:float -> float
(** Average supply current of [energy_pj] dissipated over [cycles] at
    [clock_hz] and [supply_v].  Zero for an empty interval. *)

val check : limit -> energy_pj:float -> cycles:int -> verdict
(** Judges a workload against a limit at a 10 MHz clock (a contact smart
    card range). *)

val pp_verdict : Format.formatter -> verdict -> unit
