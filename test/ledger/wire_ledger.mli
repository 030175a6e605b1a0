(** The gate-level wire ledger: what the Diesel estimator accounted per
    interface wire — transitions and energy, as hex float literals — with
    the interface and internal totals and a digest of the per-cycle meter
    profile, over the perfbench replay traces in both issue modes and one
    gate-level contention run.  Bit-exact by construction, so a recorded
    copy is an oracle for any change to how the wires are kept. *)

val entries : unit -> (string * string) list
(** [(key, value)] in a deterministic order; keys are unique. *)

val vcd_text : unit -> string
(** The VCD dump of a short gate-level run: one read, one write, one
    burst read and one bus error. *)
