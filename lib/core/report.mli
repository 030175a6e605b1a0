(** Plain-text rendering of the paper's tables.

    Fixed-width tables with a header row, matching the way results are
    presented in the paper and in EXPERIMENTS.md. *)

val table : header:string list -> string list list -> string
(** [table ~header rows] lays out columns to the widest cell.  Cells that
    parse as numbers are right-aligned. *)

val metrics : Obs.Metrics.t -> string
(** Tabular snapshot of simulator metrics: one counters table followed by
    one table per histogram that observed anything, with {!table}
    alignment and human bucket labels.  The machine-readable form is
    [Obs.Metrics.to_json]. *)

val pool_stats : Pool.t -> string
(** Session and compiled-plan cache effectiveness of a {!Pool}: hits,
    builds and hit rate for the resettable-session free-lists
    ({!Pool.hits}/{!Pool.builds}) and for the plan memo
    ({!Pool.memo_hits}/{!Pool.memo_builds}), followed by one
    ["plans:<tag>"] row per memo tag (trace and fabric plans, study and
    exploration cells, {!Pool.memo_tag_stats}); the tag rows sum to the
    ["plans"] row. *)

val pct : float -> string
(** Signed percentage with one decimal ("+14.7%", "-7.8%", "0.0%"). *)

val ratio_pct : reference:float -> float -> string
(** Value as percent of a reference ("92.1%"). *)

val pj : float -> string
