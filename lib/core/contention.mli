(** Multi-master contention runs and the arbitration/topology study.

    Builds a {!System} at a timed level, wraps its bus port in an
    {!Ec.Fabric} (arbitration, per-master energy attribution, optional
    bridged far bus) and drives one {!Soc.Trace_master} per master
    through the fabric's ports.  This is the measurement harness behind
    the contention tables in EXPERIMENTS.md and the
    [smartcard run --masters] command line (DESIGN.md section 17). *)

(** Bus topology under test. *)
type topology =
  | Single  (** every master shares the one platform bus *)
  | Bridged
      (** a second bus of the same level behind a bridge, holding a far
          RAM at {!far_window}; traffic addressed there crosses over *)

val topology_to_string : topology -> string

val topology_of_string : string -> topology option
(** Accepts ["single"] and ["bridged"]. *)

(** Who a master models; purely a label for reports (any master may
    replay any trace). *)
type kind = Cpu | Dma | Crypto

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val far_window : int * int
(** Byte-address half-open range [\[lo, hi)] of the far RAM in bridged
    topologies — outside the Figure-1 platform map, so single-bus runs
    never touch it. *)

(** Per-master outcome of a contention run. *)
type master_row = {
  kind : kind;
  txns : int;  (** transactions completed through the fabric *)
  beats : int;  (** data beats of successful transactions *)
  errors : int;
  grants : int;  (** arbitration grants won *)
  energy_pj : float;  (** fabric-attributed share, see DESIGN.md 17.3 *)
}

type result = {
  level : Level.t;
  policy : Ec.Arbiter.policy;
  topology : topology;
  cycles : int;
  fabric_pj : float;
      (** total attributed energy — by construction the exact float sum
          of the rows' [energy_pj] *)
  bus_pj : float;
      (** what the bus energy models themselves report (near plus far,
          each as {!System.bus_pj}), for cross-checking the attribution
          against the meters *)
  bridge_pj : float;  (** crossing energy, included in [fabric_pj] *)
  crossings : int;
  rows : master_row list;
  wall_seconds : float;
}

val run :
  ?level:Level.t ->
  ?policy:Ec.Arbiter.policy ->
  ?topology:topology ->
  ?mode:Soc.Trace_master.mode ->
  ?table:Power.Characterization.t ->
  ?pool:Pool.t ->
  (kind * Ec.Trace.t) list ->
  result
(** Replays each listed trace on its own fabric port until every master
    drains, interpreting the full bus models.  Master 0 is highest
    priority under [Fixed_priority] and the weight vector of a
    [Weighted] policy is in list order.

    Defaults: [level = L1] (any timed level works), [policy =
    Round_robin], [topology = Single], pipelined masters.  Bus
    estimation is always on, a bridge crossing costs 1.5 pJ per beat
    with a latency of 2 cycles, and a run must drain within 4 000 000
    cycles.

    With [?pool] the run checks out a pooled fabric session (keyed by
    level, table, policy, topology and master kinds; traces and issue
    mode re-arm per checkout).  {!compile} records the same run as a
    plan that {!Compile.Eval.eval_fabric_multi} folds under any table,
    bit-identical at every level [run] accepts.

    @raise Invalid_argument on an empty master list, on [level = L3]
    (the message layer replays serially through a carrier — there is
    nothing to arbitrate; see DESIGN.md 17.4), or on a [Weighted] vector
    whose length differs from the master count. *)

val compile :
  ?level:Level.t ->
  ?policy:Ec.Arbiter.policy ->
  ?topology:topology ->
  ?mode:Soc.Trace_master.mode ->
  ?pool:Pool.t ->
  (kind * Ec.Trace.t) list ->
  Compile.Plan.fabric
(** One instrumented interpreted pass (DESIGN.md section 18): the bus
    taps record the near/far bodies, the fabric's integer
    observer records the arbitration-resolved per-master bucket-add
    order, and the result is a {!Compile.Plan.fabric} replayable under
    any characterization table.  Asserts the schedule's
    parameter-independence with a replay cross-check — the fresh plan
    evaluated at the capture table must reproduce the interpreted
    buckets bit for bit.  The near and far bodies are recorded by
    {!System.capture}.  The bridge runs at {!run}'s defaults.  As in
    {!Runner.compile_trace}, {!Level.Rtl} and {!Level.L1} record the
    same wire bodies: an rtl plan is captured (and cross-checked) at
    layer 1, and the near and far plans come back at the requested
    level.  With [?pool] the plan is memoized under the ["fabric"] tag,
    keyed by {!Runner.plan_key}, so an rtl and an L1 plan of one
    workload share one capture.

    @raise Invalid_argument as {!run}.
    @raise Failure if the cross-check diverges. *)

val default_masters : n:int -> topology -> (kind * Ec.Trace.t) list
(** The standard three-master stimulus: a CPU replaying the Table-3 mix
    ([n] transactions), a DMA block move ([n] words — from
    the far window when [Bridged], FLASH otherwise) and a crypto driver
    ([n/8] blocks). *)

val study :
  ?n:int ->
  ?levels:Level.t list ->
  ?compiled:bool ->
  ?pool:Pool.t ->
  ?domains:int ->
  unit ->
  result list
(** The full exploration grid: arbiter policy x topology x level (default
    levels {!Level.timed}; policies fixed / rr / wrr 4:2:1) over
    {!default_masters}.  Cells are independent simulations mapped across
    [?domains] {!Parallel} domains, each through {!run}.  Priced at one
    table, a cell keeps no plan: with [~compiled:true] and a [?pool] its
    result memoizes (tag ["fabric"]) by [(n, level, policy, topology)],
    so a repeated sweep on any domain is one lookup per cell (a hit's
    [wall_seconds] is its own); otherwise [?pool] pools the sessions. *)

val render_study : result list -> string
(** Markdown-ish table of a {!study}, one row per run with per-master
    energy shares — the source of the contention table in
    EXPERIMENTS.md. *)
