(** Ablation studies for the design choices behind the reproduction.

    Each study varies one modelling decision and reports its effect on
    the paper's headline metrics, answering "how much of the result
    depends on this choice?":

    - electrical detail of the reference estimator (coupling, internal
      nets) → the layer-1 error band;
    - characterization quality (capacitance-based default table versus
      the table derived from the gate-level model) → layer-1 accuracy;
    - the layer-2 boundary-toggle assumption → the layer-2 error curve;
    - the CPU store buffer → cycles of the traced test program. *)

type row = { label : string; value : float; note : string }

val characterization_quality : ?pool:Pool.t -> unit -> row list
(** Layer-1 error with the default capacitance table vs the derived
    table, on the accuracy stimulus.  Each stimulus segment compiles
    into a replay plan once and both tables fold off it in one
    multi-point pass ({!Runner.replay_multi}); figures are
    bit-identical to two interpreted runs. *)

val store_buffer_effect : unit -> row list
(** Program cycles with and without the CPU store buffer, per test
    program (layer-1 bus). *)

val run_all : unit -> string
(** Every study, rendered; the five studies are independent and fan out
    with {!Parallel.map}.  They share one session pool, so each study's
    reference and layer runs reuse reset sessions (pooled runs are
    bit-identical to fresh ones). *)
