(** HW/SW interface exploration of the paper's section 4.3.

    For each interface configuration, the hardware stack joins the
    platform as an extra slave, the master adapter binds the Java Card
    interpreter's stack calls to bus transactions, and the applet runs on
    the energy-aware transaction-level bus.  Rows report cycles, bus
    energy, transaction count and functional correctness against the
    software-stack reference — the data on which the "best HW/SW
    interface between the java card interpreter and the hardware stack"
    is chosen.

    The sweep runs either at one fixed level or adaptively
    ([~policy], DESIGN.md section 12): a {!Runner.live_adaptive} session
    routes the adapter's traffic between the front-ends of the levels
    the policy names, window by window, and the row carries the spliced
    provenance of its energy figure.  A warm cell keeps its answer, not
    a plan: priced at one table, a plan would fold only at its capture
    point (DESIGN.md section 14). *)

type row = {
  config : Jcvm.Configs.t;
  applet : string;
  level : Level.t;
      (** the fixed level, or an adaptive policy's [base] level *)
  cycles : int;  (** kernel cycles consumed by the applet's bus traffic *)
  bus_pj : float;
  transactions : int;  (** bus transactions the adapter issued *)
  steps : int;  (** bytecode instructions interpreted *)
  value : int option;
  correct : bool;  (** matches the software-stack reference *)
  provenance : Hier.Splice.t option;
      (** adaptive rows only: what the spliced [bus_pj] is made of —
          per-level windows, cycles, energies and the error budget *)
}

val run_one :
  ?level:Level.t ->
  ?policy:Hier.Policy.t ->
  ?sink:Obs.Sink.t ->
  ?pool:Pool.t ->
  config:Jcvm.Configs.t ->
  Jcvm.Applets.t ->
  row
(** One grid cell, estimated with the default characterization table.
    [level] (default [L1]) picks a fixed-level system;
    [policy] instead runs the cell through a live adaptive session —
    the two are mutually exclusive.  [cycles], [transactions], [value]
    and [correct] are bit-identical between [~level:l] and
    [~policy:(Hier.Policy.constant l)] (and the adaptive preset — only
    [bus_pj] moves, within the splice's error budget).  [sink] records
    the cell's bus traffic and, on the adaptive path, its window
    lifecycle — feed it to {!Obs.Chrome} for a per-row Perfetto trace.
    It is a run input, attached when the cell arms its session, so an
    adaptive cell with a [sink] pools like one without.  A fixed-level
    cell with a [sink] interprets, memoizing nothing, so the sink sees
    every run.

    A pooled cell at any level, without a [sink] and without a
    [policy], interprets once and memoizes its row in [pool] (tag
    ["explore"]) per (level, applet, configuration), so repeating a
    cell is one memo lookup.  Rows are bit-identical to the unpooled
    cell.  A pooled cell under a [policy] reuses reset live
    materials (hardware stack included) for its configuration; rows are
    bit-identical to fresh builds.  Without [pool] the cell interprets:
    this is the reference path.
    @raise Invalid_argument if both [level] and [policy] are given. *)

val run :
  ?level:Level.t ->
  ?policy:Hier.Policy.t ->
  ?applets:Jcvm.Applets.t list ->
  ?domains:int ->
  unit ->
  row list
(** Full sweep over {!Jcvm.Configs.standard}; defaults: layer 1 bus and
    all sample applets.  The applet x configuration grid fans out over
    [domains] with {!Parallel.map}; row order and contents match the
    serial sweep.  [policy] makes every cell adaptive, e.g.
    [Hier.Policy.for_exploration ()].

    A sweep always draws sessions — and memoized rows, see
    {!run_one} — from a process-wide pool shared by every [run] call;
    rows are bit-identical to unpooled {!run_one} cells.  Every domain
    shares that pool's store, so a {e repeated} fixed-level grid is one
    memo lookup per cell, on any number of domains. *)

val render : row list -> string
(** One table per applet: best correct configuration (energy) marked
    with [*], functionally wrong rows flagged with [!] (they are never
    best).  When any row is adaptive, three provenance columns show the
    per-level window/cycle/pJ split and the row's error budget. *)
