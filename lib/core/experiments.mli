(** Canonical definitions of the paper's experiments (section 4).

    Each [run_*] executes the experiment and returns structured results;
    each [render_*] lays them out like the paper's table.  The
    [smartcard] CLI and the benchmark in [perfbench/] both call these,
    so EXPERIMENTS.md numbers are reproducible from a single place. *)

(** {1 Tables 1 and 2: timing and energy accuracy} *)

val accuracy_stimulus :
  unit ->
  (string * Ec.Trace.t * Soc.Trace_master.mode * (System.t -> unit)) list
(** The paper's two verification steps: the EC-specification sequences
    (replayed serially) and the transactions traced from the assembly test
    program running on the gate-level model (replayed pipelined, as the
    core issued them). *)

type accuracy_row = {
  level : Level.t;
  cycles : int;
  cycle_err_pct : float;  (** vs the gate-level reference *)
  energy_pj : float;
  energy_err_pct : float;
}

val run_accuracy :
  ?table:Power.Characterization.t ->
  ?domains:int ->
  unit ->
  accuracy_row list
(** Characterizes on the training workload (unless [table] is given),
    then runs the accuracy stimulus through all three levels — one
    {!Parallel} domain per level; the rows are identical to a serial
    run.  One reset session per level is reused across the stimulus
    segments (pooled runs are bit-identical to fresh ones). *)

val render_table1 : accuracy_row list -> string
val render_table2 : accuracy_row list -> string

(** {1 Table 3: simulation performance} *)

type perf_row = {
  label : string;
  kilo_txns_per_s : float;
  factor_vs_l1_estimating : float;
}

val run_performance : txns:int -> unit -> perf_row list
(** Replays the Table 3 mix ("all combinations between single read,
    single write, burst read and burst write"), issued serially as in the
    paper's testbench, through layer 1 and layer 2 — each with and
    without energy estimation — plus the gate-level reference for the
    acceleration context, [txns] transactions each; the best of three
    wall-clock runs is reported per model.  The models run serially:
    these are wall-clock measurements, and concurrent runs contend for
    cores and distort the factors.  One reset session per model is
    reused across the repetitions; the timed
    region never includes setup, so the reported factors are
    unaffected. *)

val render_table3 : perf_row list -> string

(** {1 Adaptive mixed-level comparison} *)

type adaptive_row = {
  label : string;
  cycles : int;
  bus_pj : float;
  energy_err_pct : float;  (** vs the gate-level reference *)
  kilo_txns_per_s : float;
  speedup_vs_l1 : float;
}

type adaptive_summary = {
  rows : adaptive_row list;
      (** gate reference, pure L1, pure L2, adaptive — in that order *)
  windows : int;
  switches : int;
  l1_txn_share_pct : float;  (** share of transactions refined to layer 1 *)
  error_bound_pj : float;  (** the splicer's cumulative budget *)
  within_bound : bool;  (** spliced total vs gate reference within budget *)
}

val adaptive_policy : Hier.Policy.t
(** The experiment's policy: layer 2 everywhere, layer 1 while traffic
    targets the EEPROM (the DPA-sensitive window). *)

val run_adaptive_comparison :
  ?txns:int -> ?repetitions:int -> unit -> adaptive_summary
(** Replays {!Workloads.mixed_phase_trace} (default 8000 transactions)
    through the gate-level reference, pure layer 1, pure layer 2 and the
    adaptive engine, best of [repetitions] (default 3) wall-clock runs
    each, on one session pool.  The table the new subsystem is judged
    by: accuracy vs the reference and T/s vs pure layer 1. *)

val render_adaptive : adaptive_summary -> string

(** {1 Adaptive exploration comparison} *)

type exploration_mode = {
  mode : string;
  wall_s : float;  (** wall time of the whole serial sweep *)
  grid_pj : float;  (** sum of the grid's row energies *)
  pj_delta_pct : float;  (** vs the pure layer-1 sweep *)
  speedup_vs_l1 : float;  (** wall-clock ratio, layer-1 sweep / this sweep *)
}

type exploration_comparison = {
  applets : string list;
  cells : int;  (** applet x configuration grid size *)
  modes : exploration_mode list;
      (** pure layer 1 (cold), layer 1 warm off memoized cells, pure
          layer 2, adaptive — in that order *)
  bit_exact : bool;
      (** adaptive rows match layer 1 on cycles, transactions, value and
          correctness *)
  compiled_exact : bool;
      (** the warm layer-1 sweep's rows equal unpooled, freshly
          interpreted layer-1 cells exactly, energies included *)
  within_budget : bool;
      (** every adaptive row's spliced energy lies within its own
          declared error budget of the layer-1 figure *)
}

val run_exploration_comparison :
  applets:Jcvm.Applets.t list ->
  ?policy:Hier.Policy.t ->
  unit ->
  exploration_comparison
(** Runs the section 4.3 sweep over {!Jcvm.Configs.standard} three
    ways — pure layer 1, pure layer 2, and adaptively under [policy]
    (default [Hier.Policy.for_exploration ()]) — serially, so the
    wall-clock ratios are honest, and checks the adaptive sweep's acceptance
    contract (DESIGN.md section 12): functional fields bit-exact against
    layer 1 and spliced energies within budget. *)

val render_exploration_comparison : exploration_comparison -> string

(** {1 Figure 6: energy sampling semantics} *)

type figure6 = {
  l1_profile : Power.Profile.t;  (** cycle-accurate energy over time *)
  l2_lumps : (int * float) list;  (** (sample cycle, energy since last) *)
  l1_total : float;
  l2_total : float;
}

val run_figure6 : unit -> figure6
(** Three wait-state transactions (read, write, read): layer 1 yields the
    true per-cycle profile; layer 2's power interface only produces
    phase-lumped samples at the two paper sampling points. *)

val render_figure6 : figure6 -> string
