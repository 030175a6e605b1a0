(** Per-cycle energy profiles.

    A profile is the time series of energy dissipated in each clock cycle.
    Cycle-accurate profiles (layer 1 and below) are the basis for power
    analysis considerations; phase-lumped sampling (layer 2, the paper's
    Figure 6) is reconstructed by {!lumped}. *)

type t

val create : unit -> t
val push : t -> float -> unit
(** Appends the energy of the next cycle. *)

val length : t -> int

val reset : t -> unit
(** Empties the profile; capacity is kept for reuse. *)

val get : t -> int -> float
val total : t -> float
val max_value : t -> float
val to_array : t -> float array

val window_sum : t -> lo:int -> hi:int -> float
(** Sum over cycles [lo..hi-1], clamped to the recorded range. *)

val lumped : t -> sample_points:int list -> (int * float) list
(** [lumped t ~sample_points] models the layer-2 power interface: the
    energy-since-last-call method sampled at the given cycles (paper
    Figure 6).  Returns [(cycle, lump)] pairs covering the profile; a
    final implicit sample at the profile end closes the series. *)

val to_csv_lines : t -> string list
(** ["cycle,energy_pj"] header plus one line per cycle. *)

val to_jsonl_lines : t -> string list
(** JSON-lines rendering: one [{"cycle":12,"pj":3.25}] object per cycle,
    no header.  Streams into log processors next to the Chrome trace
    export. *)

val sparkline : ?width:int -> t -> string
(** Coarse ASCII rendering for terminal reports. *)
