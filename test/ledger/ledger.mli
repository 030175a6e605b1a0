(** The component ledger: what every platform component accounted over a
    fixed set of runs — active, idle and access counts per component,
    component and bus energy as hex float literals — keyed by run and
    component.  Bit-exact by construction, so a recorded copy is an
    oracle for any change to how the counts are kept. *)

val entries : unit -> (string * string) list
(** [(key, value)] in a deterministic order; keys are unique. *)
