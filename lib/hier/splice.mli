(** Energy splicing: stitching per-window energy measurements taken at
    different abstraction levels into one reconciled profile.

    Every window of a mixed-level run contributes a {!seg}: its level,
    duration, traffic counters, estimated bus and component energy, and —
    when the level records one — a per-cycle energy profile.  {!splice}
    lays the windows end to end on a single spliced timeline and
    accounts an error budget per window: the window's estimated bus
    energy times the fractional bound for its level (vs the gate-level
    reference), so the cumulative bound states how far the spliced total
    may sit from a pure gate-level estimate of the same run. *)

type provenance =
  | Cycle_accurate  (** per-cycle energies (gate level, layer 1) *)
  | Lumped  (** phase-lumped estimates spread over the window (layer 2) *)

type seg = {
  level : Level.t;
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  profile : Power.Profile.t option;
}

type window = {
  index : int;
  level : Level.t;
  start_cycle : int;  (** position on the spliced timeline *)
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  profile : Power.Profile.t option;
  provenance : provenance;
  err_bound_pj : float;  (** |bus_pj| x budget(level) *)
}

type t = {
  windows : window list;
  total_cycles : int;
  total_txns : int;
  total_beats : int;
  total_errors : int;
  total_bus_pj : float;
  total_component_pj : float;
  error_bound_pj : float;  (** cumulative: sum of per-window bounds *)
  switches : int;  (** adjacent window pairs with different levels *)
}

val splice : seg list -> t
(** Windows are laid out in list order; totals are exact sums of the
    window figures.  The fractional bound per level is 0 for the
    reference, 12% for layer 1 and 25% for layer 2 — enveloping the
    Table 2 error bands with margin.
    @raise Invalid_argument on a layer-3 segment: layer 3 is no bus a
    window can be routed to. *)

val profile : t -> Power.Profile.t
(** The reconciled per-cycle series over the whole spliced timeline:
    recorded profiles verbatim, unrecorded windows as a uniform spread of
    their lump. *)

val error_vs_reference : t -> reference_pj:float -> float * bool
(** [(signed error %, within budget?)] of the spliced total against a
    reference estimate of the same run. *)

val provenance_string : provenance -> string
