(** State-based energy models for smart card peripherals.

    The paper's conclusion announces extending the bus model "to allow an
    early energy estimation for several different typical smart card
    components, like random number generators, UARTs or timers".  This
    module implements that extension: a component dissipates a baseline
    energy per cycle depending on whether it is idle or active, plus a
    fixed energy per bus access. *)

type params = {
  idle_pj_per_cycle : float;
  active_pj_per_cycle : float;
  access_pj : float;  (** per bus read or write hitting the component *)
}

val params :
  ?idle_pj_per_cycle:float ->
  ?active_pj_per_cycle:float ->
  ?access_pj:float ->
  unit ->
  params
(** All default to 0. @raise Invalid_argument on negative values. *)

type t
(** A component's ledger.  Only active cycles and accesses are counted;
    idle cycles are derived — the rising edges elapsed at the component's
    kernel slot since creation or the last {!reset}, minus the active
    ones — so an idle owner needs no per-cycle process at all. *)

val create : name:string -> slot:Sim.Kernel.handle -> params -> t
(** [slot] is the rising-edge position whose passes are this component's
    cycles ({!Sim.Kernel.slot}); the owner's per-cycle process, if it has
    one, is bound there.  A slot on a kernel that never steps gives a
    component with no cycles, whose only counts are accesses. *)

val name : t -> string

val count_active : t -> unit
(** Accounts the edge now passing the slot as active.  Called by the
    owner's process when it runs with work. *)

val mark : t -> unit
(** Claims the next edge to reach the slot as active — the state of a
    component that is active in any cycle it was touched since the
    previous edge.  Idempotent until that edge has passed. *)

val access : t -> unit
(** Accounts one bus access. *)

val energy_pj : t -> float
val active_cycles : t -> int
val idle_cycles : t -> int
(** Slot edges elapsed since creation or {!reset}, minus {!active_cycles}. *)

val accesses : t -> int
val reset : t -> unit
(** Zeroes the counts: idle cycles count again from the current slot
    edge. *)

(** Typical parameter presets (synthetic, smart-card scale). *)
module Presets : sig
  val rom : params
  val eeprom : params
  val flash : params
  val sram : params
  val uart : params
  val timer : params
  val trng : params
  val crypto : params
end
