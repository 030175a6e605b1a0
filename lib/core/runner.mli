(** Experiment runners: one call builds a fresh system at a given level,
    drives a workload through it and collects the measurements the
    paper's tables are made of. *)

type result = {
  level : Level.t;
  cycles : int;  (** simulated clock cycles until the workload drained *)
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  transitions : int;
  profile : Power.Profile.t option;
  wall_seconds : float;  (** host time spent simulating *)
}

val txns_per_second : result -> float
(** Simulation performance in bus transactions per wall-clock second (the
    T/s metric of Table 3). *)

val run_trace :
  level:Level.t ->
  ?estimate:bool ->
  ?record_profile:bool ->
  ?table:Power.Characterization.t ->
  ?rtl_params:Rtl.Params.t ->
  ?l2_params:Tlm2.Energy.params ->
  ?mode:Soc.Trace_master.mode ->
  ?init:(System.t -> unit) ->
  ?sink:Obs.Sink.t ->
  ?pool:Pool.t ->
  Ec.Trace.t ->
  result
(** Interprets the trace through the full bus model.  [init] runs
    against the system before simulation starts (load images, fill
    memories).  [sink] is attached to the bus and the trace master for
    this run and records one final [Energy_sample] (plus the run's
    pJ/beat) when the workload drains; simulated results are
    bit-identical with and without it.

    [pool] reuses a reset session of the same configuration instead of
    building one — results and events are bit-identical to a fresh
    build.  When pooling, [init] runs once per checkout, after the
    reset; it must set state (fill memories, poke registers), not
    register kernel processes.

    For the compiled path call {!compile_trace} + {!replay_multi} (one
    point per parameter set): bit-identical results, including the
    per-cycle profile, at every level without a sink ([Rtl] with the
    default [rtl_params]). *)

(** {1 Compiled trace replay}

    A {!Compile.Plan.t} is the one-shot resolution of a trace at a
    level: routing, wait states and merge/burst decisions are already
    taken, and what remains is integer transition data plus the
    table-independent scalar results.  Replaying it costs microseconds,
    and a multi-point replay evaluates many characterization points off
    one shared decode (DESIGN.md section 14). *)

val compile_trace :
  ?level:Level.t ->
  ?mode:Soc.Trace_master.mode ->
  ?init:(System.t -> unit) ->
  ?pool:Pool.t ->
  Ec.Trace.t ->
  Compile.Plan.t
(** One interpreted resolution run with the plan taps attached (at
    {!Level.L3}, its layer-2 carrier's, driven by serial blocking replay
    through {!Ec.Port.transact} as {!run_trace} does); the
    characterization table plays no role, so one plan serves every
    parameter point.  {!Level.Rtl} and {!Level.L1} record one wire
    body, captured at layer 1; the returned plan carries the requested
    level, and an rtl plan folds through the gate level's estimator
    under the default {!Rtl.Params}.  With [pool] the plan is memoized
    under {!plan_key} and the trace fingerprint — see {!Pool.memo} —
    unless [init] is given (closures cannot be fingerprinted, so such
    runs always compile fresh).  The plan is recorded by
    {!System.capture}. *)

val plan_key : level:Level.t -> mode:Soc.Trace_master.mode -> string
(** The run-shaping part of a memoized plan's key: the level and the
    issue mode.  {!Level.Rtl} and {!Level.L1} share one key per mode;
    {!Level.L3}'s serial blocking replay has no issue discipline, so its
    key carries no mode. *)

val replay_multi :
  ?record_profile:bool ->
  points:Compile.Eval.point list ->
  Compile.Plan.t ->
  result list
(** One {!result} per point, in order, from a single walk of the plan —
    the one compiled replay entry; a single point is a one-element
    [points].  [cycles], [txns], [beats], [errors], [transitions] and
    [component_pj] come from the plan's capture run; [bus_pj] and the
    optional [profile] are folded for each point's table and
    [l2_params] — all bit-identical to {!run_trace} with the same
    arguments.  [wall_seconds] of every result is the wall time of the
    whole batch. *)

val fill_memories : System.t -> unit
(** Writes a deterministic pattern into the first KiBs of every memory, so
    replayed read traffic carries realistic data values. *)

(** {1 Adaptive mixed-level runs}

    One engine serves every mixed-level run (DESIGN.md sections 10 and
    12): a live session keeps one kernel and one platform with a bus
    front-end per level its policy names, and routes each transaction
    through the level a {!Hier.Engine.Live} session decides.  A trace
    master replaying a trace ({!run_adaptive}) and a master generating
    traffic as it goes ({!live_adaptive}, the JCVM exploration) drive it
    alike.  Only timed levels switch: a policy naming {!Level.L3} is
    refused with [Invalid_argument] before any cycle runs — a layer-3
    run is serial issue onto the layer-2 carrier and has no bus of its
    own to switch to ({!run_trace} runs it directly). *)

type adaptive_run = {
  splice : Hier.Splice.t;  (** per-window provenance and error budget *)
  cycles : int;  (** spliced-timeline totals, as in {!result} *)
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  switches : int;
  wall_seconds : float;
}

val adaptive_txns_per_second : adaptive_run -> float

type live = {
  kernel : Sim.Kernel.t;  (** the one kernel every level shares *)
  port : Ec.Port.t;
      (** the switching master port: drive any bus master through it *)
  front_pj : Level.t -> float;
      (** the bus energy a level's front-end has counted so far; every
          pJ of it lies in one of that level's windows *)
  finish : unit -> adaptive_run;
      (** call once, after the driving master has retired its last
          transaction *)
}

type live_materials
(** The durable hardware of a live session — kernel, platform, a bus
    front-end per level the policy names (built by
    {!System.create_bus} on the shared kernel and decoder) and the
    switching port — separated out so a pool can reuse it across runs.
    A trace replay also registers its master here once and arms it on
    every replay ({!Soc.Trace_master.reset}), so a pooled kernel never
    stacks masters. *)

val live_materials :
  ?table:Power.Characterization.t ->
  ?record_profile:bool ->
  ?peripheral_clock:[ `Running | `Gated ] ->
  ?extra_slaves:Ec.Slave.t list ->
  ?extra_reset:(unit -> unit) ->
  policy:Hier.Policy.t ->
  unit ->
  live_materials
(** Front-ends for the levels [policy] names, estimating with [table]
    (default {!Power.Characterization.default}) and recording per-cycle
    profiles with [record_profile]; the other arguments reach
    {!System.create}.  The platform's bus-mastering peripherals are
    connected to the switching port.  [extra_reset] is the caller's
    hook for rewinding its [extra_slaves] (e.g. [Jcvm.Hw_stack.reset]);
    {!reset_live_materials} calls it last.
    @raise Invalid_argument if [policy] names {!Level.L3}. *)

val reset_live_materials : live_materials -> unit
(** Rewinds kernel, platform, every front-end (including its energy
    model — the layer-2 model returns to its creation parameters,
    undoing in-run calibration) and finally the caller's extra slaves,
    so the next run on these materials is bit-identical to one on
    freshly built materials. *)

val live_adaptive :
  ?sink:Obs.Sink.t -> policy:Hier.Policy.t -> live_materials -> live
(** A mixed-level session on fresh or reset materials built for
    [policy]'s levels: the returned {!live.port} routes each submitted
    transaction through the level the session decides — so a master
    (the JCVM adapter, a trace master) pays layer-1 or gate-level cost
    only inside refined windows.  A switch waits for the routed
    front-end to quiesce: the transaction that would switch is refused
    (the master retries) until every transaction that front-end
    accepted has been retired.  The session opens windows within the
    policy's [min_window]/[max_window] bounds and decides each
    transaction from its index and address and the previous window's
    power; it never reads the clock between windows.  Only the routed
    front-end steps; the one that takes the first transaction has run
    from cycle 0, so a {!Hier.Policy.constant} session — a base level
    with no triggers, hence one window — measures exactly like the pure
    run at its level.  Windows splice against the default error budgets
    ({!Hier.Splice.splice}); with [record_profile] materials each
    window carries its front-end's per-cycle profile.  The routed
    front-end carries [sink], and the session brackets each window with
    [Window_open]/[Window_close] events on the run's one timeline.

    The session calibrates the layer-2 lump parameters in-run,
    hierarchically: every transaction retired in a layer-1 window is
    replayed into scratch layer-2 models, and at every layer-1 window
    close the scale [f = (E_L1 - X) / A] — measured layer-1 energy
    against the traffic-driven ([X]) and assumption-driven ([A]) parts
    of the layer-2 estimate — rescales the {!Tlm2.Energy} default
    parameters ({!Tlm2.Energy.set_params}) for the layer-2 windows that
    follow.  The blend is latest-window-dominant so the calibration
    tracks workload phases.
    @raise Invalid_argument if [policy] names {!Level.L3} or other
    levels than the materials were built for. *)

val run_adaptive :
  ?record_profile:bool ->
  ?table:Power.Characterization.t ->
  ?peripheral_clock:[ `Running | `Gated ] ->
  ?mode:Soc.Trace_master.mode ->
  ?init:(System.t -> unit) ->
  ?sink:Obs.Sink.t ->
  ?pool:Pool.t ->
  policy:Hier.Policy.t ->
  Ec.Trace.t ->
  adaptive_run
(** Mixed-level replay: a trace master issues the trace ([mode], as in
    {!run_trace}) through a {!live_adaptive} session on
    {!live_materials} built from the same arguments.  [init] runs
    against a {!System.t} view of the materials — their kernel and
    platform — before the first cycle (load images, fill memories).
    With a {!Hier.Policy.constant} policy the run matches {!run_trace}
    at that level bit for bit: cycles, transaction counts, bus and
    component energy, and the profile.

    [sink] goes to the master and the session ({!live_adaptive}).

    [pool] reuses reset materials (keyed by the policy's levels,
    [record_profile], [table] and [peripheral_clock]); results and
    events are bit-identical to a fresh build.  [init] then runs once
    per checkout, after the reset.
    @raise Invalid_argument if [policy] names {!Level.L3}. *)

type program_run = {
  result : result;
  instructions : int;
  fault : Soc.Cpu.fault option;
  uart_output : string;
  system : System.t;
  cpu : Soc.Cpu.t;
  icache : Soc.Icache.t option;
}

val run_program :
  ?level:Level.t ->
  ?record_profile:bool ->
  ?icache_lines:int ->
  ?vcd:string ->
  ?sink:Obs.Sink.t ->
  ?pool:Pool.t ->
  Soc.Asm.program ->
  program_run
(** Loads the image, runs the CPU to halt.  The program must reside in a
    memory of the Figure-1 map.  With [icache_lines] the core fetches
    through an instruction cache of that many 16-byte lines.  [vcd]
    writes a waveform dump of the run (gate-level systems only:
    @raise Invalid_argument otherwise).

    [pool] reuses a reset CPU session (system + core + optional cache);
    runs with [vcd] always build fresh.  The [system], [cpu]
    and [icache] handles in the returned record then stay valid only
    until the next pooled run with the same configuration on any domain
    holding the pool — read any per-run figures off them before starting
    another run. *)

val capture_cpu_trace : Soc.Asm.program -> Ec.Trace.t
(** The paper's tracing step: runs the program on the gate-level system
    with a bus monitor and returns the recorded transaction trace. *)

val capture_with_icache :
  ?icache_lines:int -> Soc.Asm.program -> Ec.Trace.t * Soc.Icache.t option
(** {!capture_cpu_trace}, with [icache_lines] putting an instruction
    cache between the CPU and the monitor, so the trace is the post-cache
    bus traffic of that cache configuration; also returns the capture
    run's cache (its hit/miss counters and energy), for studies that
    replay the trace but report the cache's figures — {!Cache_study}
    with a policy. *)

val characterize : ?rtl_params:Rtl.Params.t -> unit -> Power.Characterization.t
(** Runs the training workload {!Workloads.characterization_trace} on
    the gate-level reference and derives the per-signal table, mirroring
    the Diesel-based flow. *)
