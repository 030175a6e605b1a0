type result = {
  level : Level.t;
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  transitions : int;
  profile : Power.Profile.t option;
  wall_seconds : float;
}

let txns_per_second r =
  if r.wall_seconds <= 0.0 then 0.0 else float_of_int r.txns /. r.wall_seconds

let collect system ~cycles ~wall_seconds =
  {
    level = System.level system;
    cycles;
    txns = System.completed_txns system;
    beats = System.completed_beats system;
    errors = System.error_txns system;
    bus_pj = System.bus_energy_pj system;
    component_pj = System.component_energy_pj system;
    transitions = System.bus_transitions system;
    profile = System.profile system;
    wall_seconds;
  }

(* End-of-run bookkeeping shared by the single-level runners: one
   energy sample at the final cycle plus the run's pJ/beat. *)
let record_run_energy sink system ~cycles =
  match sink with
  | None -> ()
  | Some s ->
    let pj = System.bus_energy_pj system in
    Obs.Sink.energy_sample s ~cycle:cycles ~pj;
    let beats = System.completed_beats system in
    if beats > 0 then
      Obs.Metrics.observe_pj_per_beat (Obs.Sink.metrics s)
        (pj /. float_of_int beats)

(* Pooled session records.  The [Pool.kind] witnesses live at module
   level so every call site shares them. *)
type trace_session = { ts_system : System.t; ts_master : Soc.Trace_master.t }

let trace_kind : trace_session Pool.kind = Pool.kind ()
let system_kind : System.t Pool.kind = Pool.kind ()

(* ------------------------------------------------------------------ *)
(* Compiled replay (DESIGN.md section 14)                              *)

let plan_kind : Compile.Plan.t Pool.kind = Pool.kind ()

(* Message-layer replay (DESIGN.md section 17.4): the trace's
   transactions pushed one by one through the Tlm3 bridge onto the
   system's layer-2 carrier bus.  Gaps are honoured as idle cycles;
   issue is inherently serial — the bridge blocks per message — which is
   the layer-3 timing abstraction (no pipelining, no read/write
   overlap).  Energy comes from the carrier's layer-2 model. *)
let replay_bridged system trace =
  let kernel = System.kernel system in
  let bridge = Tlm3.Bridge.create ~kernel ~port:(System.port system) in
  let ids = Ec.Txn.Id_gen.create () in
  let t0 = Sim.Kernel.now kernel in
  List.iter
    (fun item ->
      let item = Ec.Trace.instantiate ids item in
      Tlm3.Bridge.idle bridge ~cycles:item.Ec.Trace.gap;
      ignore (Tlm3.Bridge.transact bridge item.Ec.Trace.txn))
    trace;
  Sim.Kernel.now kernel - t0

(* [replay_bridged] has no issue discipline, so an L3 key drops the
   mode and both modes share one plan. *)
let plan_key ~level ~mode =
  match (level : Level.t), mode with
  | L3, _ -> Level.to_string level
  | _, `Serial -> Level.to_string level ^ ":serial"
  | _, `Pipelined -> Level.to_string level ^ ":pipelined"

(* One interpreted resolution run with the energy model's taps
   attached; everything the evaluator needs — transition words, lump
   events, the gate-level energy record, the table-independent scalar
   results — lands in the plan.  The capture table is irrelevant: no
   point parameter reaches what the taps record.  Layer 3 drives the
   capture system through the bridge, as [run_trace] does. *)
let compile_trace ?(level = Level.L1) ?(mode = `Pipelined) ?init ?pool trace =
  let build () =
    let system = System.create ~level ~estimate:true () in
    let finish = System.capture system in
    (match init with Some f -> f system | None -> ());
    if level = Level.L3 then finish ~cycles:(replay_bridged system trace)
    else
      let kernel = System.kernel system in
      let master =
        Soc.Trace_master.create ~kernel ~port:(System.port system) ~mode trace
      in
      finish ~cycles:(Soc.Trace_master.run master ~kernel ())
  in
  match (pool, init) with
  | Some p, None ->
    (* The plan is independent of the characterization table and the
       layer-2 parameters (pure integers), so the key is only what
       shapes the resolution run.  [init] closures cannot be
       fingerprinted — runs with one compile fresh. *)
    let key =
      Printf.sprintf "plan:%s:%s" (plan_key ~level ~mode)
        (Pool.fingerprint trace)
    in
    Pool.memo p plan_kind ~tag:"trace" ~key build
  | _ -> build ()

(* A result off a plan: the scalars come from the capture run, the
   energy from one point of the evaluation. *)
let result_of_plan plan ~wall_seconds (o : Compile.Eval.outcome) =
  let m = Compile.Plan.meta plan in
  {
    level = m.Compile.Plan.level;
    cycles = m.Compile.Plan.cycles;
    txns = m.Compile.Plan.txns;
    beats = m.Compile.Plan.beats;
    errors = m.Compile.Plan.errors;
    bus_pj = o.Compile.Eval.bus_pj;
    component_pj = m.Compile.Plan.component_pj;
    transitions = m.Compile.Plan.transitions;
    profile = o.Compile.Eval.profile;
    wall_seconds;
  }

let replay_multi ?(record_profile = false) ~points plan =
  let t0 = Unix.gettimeofday () in
  let outs = Compile.Eval.eval_multi ~record_profile plan ~points in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  List.map (result_of_plan plan ~wall_seconds) outs

let run_trace ~level ?(estimate = true) ?(record_profile = false)
    ?table ?rtl_params ?l2_params ?(mode = `Pipelined) ?init ?sink ?pool trace =
  let build_system () =
    System.create ~level ~estimate ~record_profile ?table ?rtl_params
      ?l2_params ?sink ()
  in
  let execute system run =
    (match init with Some f -> f system | None -> ());
    let t0 = Unix.gettimeofday () in
    let cycles = run () in
    let wall_seconds = Unix.gettimeofday () -. t0 in
    record_run_energy sink system ~cycles;
    collect system ~cycles ~wall_seconds
  in
  (* Sessions with a sink are never pooled: the sink is wired into the
     bus at creation and its event stream spans the session.  Everything
     reset does not undo goes into the key; issue mode and the trace
     itself are re-armed per checkout. *)
  let pool = if sink = None then pool else None in
  let key () =
    Printf.sprintf "trace:%s:%b:%b:%s" (Level.to_string level) estimate
      record_profile
      (Pool.fingerprint (table, rtl_params, l2_params))
  in
  if level = Level.L3 then
    (* Bridged replay needs no kernel-registered master, so a pooled L3
       run reuses a bare carrier system and rebuilds the (stateless
       beyond its counters) bridge per run. *)
    let execute system =
      execute system (fun () -> replay_bridged system trace)
    in
    match pool with
    | Some p ->
      Pool.with_session p system_kind ~key:(key ()) ~build:build_system
        ~reset:System.reset execute
    | None -> execute (build_system ())
  else
    let build () =
      let system = build_system () in
      let master =
        Soc.Trace_master.create ~kernel:(System.kernel system)
          ~port:(System.port system) ~mode ?sink trace
      in
      { ts_system = system; ts_master = master }
    in
    let execute s =
      let kernel = System.kernel s.ts_system in
      execute s.ts_system (fun () -> Soc.Trace_master.run s.ts_master ~kernel ())
    in
    match pool with
    | Some p ->
      Pool.with_session p trace_kind ~key:(key ()) ~build
        ~reset:(fun s ->
          System.reset s.ts_system;
          Soc.Trace_master.reset ~mode s.ts_master trace)
        execute
    | None -> execute (build ())

(* Deterministic content for memories read by replayed traces, so the
   read-data bus carries realistic values instead of zeros. *)
let fill_memories system =
  let pattern i = (((i * 2654435761) lxor 0x0F0F_F0F0) + (i lsl 7)) land 0xFFFFFFFF in
  let fill memory bytes =
    for w = 0 to (bytes / 4) - 1 do
      let base = (Soc.Memory.cfg memory).Ec.Slave_cfg.base in
      Soc.Memory.poke32 memory ~addr:(base + (4 * w)) (pattern w)
    done
  in
  let p = System.platform system in
  fill (Soc.Platform.rom p) 4096;
  fill (Soc.Platform.ram p) 4096;
  fill (Soc.Platform.eeprom p) 4096;
  fill (Soc.Platform.flash p) 4096

type adaptive_run = {
  splice : Hier.Splice.t;
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  switches : int;
  wall_seconds : float;
  final_system : System.t option;
}

let adaptive_txns_per_second r =
  if r.wall_seconds <= 0.0 then 0.0 else float_of_int r.txns /. r.wall_seconds

(* Architectural state handoff across a switch point: the previous
   system is quiescent (trace drained, no outstanding bursts), so the
   memories are the whole state the replayed traffic can observe.  The
   decoder map and wait-state parameters are configuration, rebuilt
   identically by System.create; peripheral-internal registers reset —
   see DESIGN.md section 10 for the rule. *)
let handoff_state ~prev ~next =
  let copy get =
    Soc.Memory.copy_contents
      ~src:(get (System.platform prev))
      ~dst:(get (System.platform next))
  in
  copy Soc.Platform.rom;
  copy Soc.Platform.ram;
  copy Soc.Platform.eeprom;
  copy Soc.Platform.flash

(* A window's hardware: the system and, below layer 3, the trace master
   registered on its kernel, re-armed with each window's segment.  The
   pair is what a pooled checkout reuses — a master registered per window
   would stay on the pooled kernel after its segment drained. *)
type adaptive_session = {
  as_system : System.t;
  as_master : Soc.Trace_master.t option;
}

let adaptive_kind : adaptive_session Pool.kind = Pool.kind ()

let run_adaptive ?record_profile ?table ?peripheral_clock ?(mode = `Pipelined)
    ?init ?sink ?pool ~policy trace =
  (* A sink is wired in at creation, so runs with one are never pooled. *)
  let pool = if sink = None then pool else None in
  let key_of level =
    Printf.sprintf "adaptive:%s:%s" (Level.to_string level)
      (Pool.fingerprint (record_profile, table, peripheral_clock))
  in
  let build level () =
    let system =
      System.create ~level ?record_profile ?table ?peripheral_clock ?sink ()
    in
    let master =
      if level = Level.L3 then None
      else
        Some
          (Soc.Trace_master.create ~kernel:(System.kernel system)
             ~port:(System.port system) ~mode ?sink [])
    in
    { as_system = system; as_master = master }
  in
  let reset s = System.reset s.as_system in
  let ops =
    {
      Hier.Engine.create =
        (fun level ->
          match pool with
          | None -> build level ()
          | Some p ->
            Pool.acquire p adaptive_kind ~key:(key_of level)
              ~build:(build level) ~reset);
      init =
        (fun s -> match init with Some f -> f s.as_system | None -> ());
      handoff =
        (fun ~prev ~next ->
          handoff_state ~prev:prev.as_system ~next:next.as_system);
      run_segment =
        (fun s seg ->
          let system = s.as_system in
          let kernel = System.kernel system in
          let cycles =
            match s.as_master with
            | None ->
              (* L3 window: message-layer replay through the Tlm3 bridge
                 onto this window's layer-2 carrier bus. *)
              replay_bridged system seg
            | Some master ->
              Soc.Trace_master.reset ~mode master seg;
              Soc.Trace_master.run master ~kernel ()
          in
          {
            Hier.Engine.cycles;
            txns = System.completed_txns system;
            beats = System.completed_beats system;
            errors = System.error_txns system;
            bus_pj = System.bus_energy_pj system;
            component_pj = System.component_energy_pj system;
            profile = System.profile system;
          });
    }
  in
  let retire =
    Option.map
      (fun p s ->
        Pool.release p adaptive_kind
          ~key:(key_of (System.level s.as_system))
          s)
      pool
  in
  let t0 = Unix.gettimeofday () in
  let r = Hier.Engine.run ?sink ?retire ~ops ~policy trace in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let s = r.Hier.Engine.splice in
  {
    splice = s;
    cycles = s.Hier.Splice.total_cycles;
    txns = s.Hier.Splice.total_txns;
    beats = s.Hier.Splice.total_beats;
    errors = s.Hier.Splice.total_errors;
    bus_pj = s.Hier.Splice.total_bus_pj;
    component_pj = s.Hier.Splice.total_component_pj;
    switches = s.Hier.Splice.switches;
    wall_seconds;
    final_system = Option.map (fun s -> s.as_system) r.Hier.Engine.last_system;
  }

type program_run = {
  result : result;
  instructions : int;
  fault : Soc.Cpu.fault option;
  uart_output : string;
  system : System.t;
  cpu : Soc.Cpu.t;
  icache : Soc.Icache.t option;
}

type program_session = {
  ps_system : System.t;
  ps_cpu : Soc.Cpu.t;
  ps_icache : Soc.Icache.t option;
}

let program_kind : program_session Pool.kind = Pool.kind ()

let run_program ?(level = Level.L1) ?(record_profile = false) ?icache_lines
    ?vcd ?sink ?pool program =
  let build () =
    let system = System.create ~level ~record_profile ?sink () in
    let kernel = System.kernel system in
    Soc.Platform.load_program (System.platform system) program;
    let platform = System.platform system in
    let bus_port = System.port system in
    let icache =
      Option.map
        (fun lines -> Soc.Icache.create ~kernel ~lines ~inner:bus_port ())
        icache_lines
    in
    let cpu_port =
      match icache with Some c -> Soc.Icache.port c | None -> bus_port
    in
    let cpu =
      Soc.Cpu.create ~kernel ~port:cpu_port ~pc:program.Soc.Asm.origin
        ~irq:(fun () -> Soc.Platform.irq_asserted platform)
        ()
    in
    { ps_system = system; ps_cpu = cpu; ps_icache = icache }
  in
  let execute s =
    let system = s.ps_system in
    let kernel = System.kernel system in
    let t0 = Unix.gettimeofday () in
    let cycles = Soc.Cpu.run_to_halt s.ps_cpu ~kernel () in
    let wall_seconds = Unix.gettimeofday () -. t0 in
    record_run_energy sink system ~cycles;
    {
      result = collect system ~cycles ~wall_seconds;
      instructions = Soc.Cpu.instructions s.ps_cpu;
      fault = Soc.Cpu.fault s.ps_cpu;
      uart_output =
        Soc.Uart.transmitted (Soc.Platform.uart (System.platform system));
      system;
      cpu = s.ps_cpu;
      icache = s.ps_icache;
    }
  in
  match pool with
  | Some p when sink = None && vcd = None ->
    let key =
      Printf.sprintf "program:%s:%b:%s" (Level.to_string level) record_profile
        (Pool.fingerprint icache_lines)
    in
    Pool.with_session p program_kind ~key ~build
      ~reset:(fun s ->
        System.reset s.ps_system;
        Option.iter Soc.Icache.reset s.ps_icache;
        Soc.Cpu.reset s.ps_cpu ~pc:program.Soc.Asm.origin;
        Soc.Platform.load_program (System.platform s.ps_system) program)
      execute
  | Some _ | None -> (
    (* VCD recording and sinks hook the session for its whole life —
       such runs always build fresh.  The recorder's falling-edge sampler
       only has to follow the bus process, which [System.create]
       registers, so it can attach after the build. *)
    let s = build () in
    match (vcd, System.bus s.ps_system) with
    | None, _ -> execute s
    | Some path, System.Rtl_bus bus ->
      let recorder =
        Rtl.Vcd.create ~kernel:(System.kernel s.ps_system) (Rtl.Bus.wires bus)
      in
      let run = execute s in
      Rtl.Vcd.write recorder path;
      run
    | Some _, (System.L1_bus _ | System.L2_bus _) ->
      invalid_arg "Core.Runner.run_program: vcd needs the rtl level")

let capture_with_icache ?icache_lines program =
  let system = System.create ~level:Level.Rtl () in
  let kernel = System.kernel system in
  fill_memories system;
  Soc.Platform.load_program (System.platform system) program;
  let monitor = Soc.Monitor.create ~kernel (System.port system) in
  (* The monitor sits between the cache and the bus, so the captured
     trace is the post-cache bus traffic — what an adaptive replay of
     this cache configuration must reproduce. *)
  let icache =
    Option.map
      (fun lines ->
        Soc.Icache.create ~kernel ~lines ~inner:(Soc.Monitor.port monitor) ())
      icache_lines
  in
  let cpu_port =
    match icache with Some c -> Soc.Icache.port c | None -> Soc.Monitor.port monitor
  in
  let cpu =
    Soc.Cpu.create ~kernel ~port:cpu_port ~pc:program.Soc.Asm.origin ()
  in
  ignore (Soc.Cpu.run_to_halt cpu ~kernel ());
  (Soc.Monitor.trace monitor, icache)

let capture_cpu_trace program = fst (capture_with_icache program)

let characterize ?rtl_params () =
  let system = System.create ~level:Level.Rtl ?rtl_params () in
  fill_memories system;
  let kernel = System.kernel system in
  let master =
    Soc.Trace_master.create ~kernel ~port:(System.port system)
      Workloads.characterization_trace
  in
  ignore (Soc.Trace_master.run master ~kernel ());
  match System.bus system with
  | System.Rtl_bus bus ->
    Rtl.Diesel.characterize ~name:"derived(gate-level)" (Rtl.Bus.diesel bus)
  | System.L1_bus _ | System.L2_bus _ -> assert false

(* ------------------------------------------------------------------ *)
(* Live adaptive sessions                                              *)

let scale_l2_params f (p : Tlm2.Energy.params) =
  {
    Tlm2.Energy.boundary_addr_toggles = p.boundary_addr_toggles *. f;
    boundary_data_toggles = p.boundary_data_toggles *. f;
    attr_toggles = p.attr_toggles *. f;
    strobe_pulses_per_phase = p.strobe_pulses_per_phase *. f;
    strobe_pulses_per_beat = p.strobe_pulses_per_beat *. f;
  }

type live = {
  kernel : Sim.Kernel.t;
  port : Ec.Port.t;
  platform : Soc.Platform.t;
  session : Hier.Engine.Live.t;
  finish : unit -> adaptive_run;
}

(* The durable hardware of a live session: one kernel, the platform, and
   a bus front-end per level — everything a pooled live run can reuse
   after a reset, and what an unpooled session builds for itself.  Both
   front-ends are built eagerly: an idle bus process steps to no effect
   and adds no energy, so the layer-2 front-end is behaviour- and
   measurement-neutral until a window routes to it. *)
type live_materials = {
  m_kernel : Sim.Kernel.t;
  m_platform : Soc.Platform.t;
  m_e1 : Tlm1.Energy.t;
  m_b1 : Tlm1.Bus.t;
  m_e2 : Tlm2.Energy.t;
  m_b2 : Tlm2.Bus.t;
  m_front : Sim.Kernel.handle * Sim.Kernel.handle;
      (* the layer-1 and layer-2 bus processes, parked by routing *)
  m_extra_reset : unit -> unit;
}

let live_materials ?sink ?(extra_slaves = []) ?(extra_reset = fun () -> ())
    () =
  let kernel = Sim.Kernel.create () in
  let platform =
    Soc.Platform.create ~kernel ~extra_slaves ~peripheral_clock:`Gated ()
  in
  let decoder = Soc.Platform.decoder platform in
  let table = Power.Characterization.default in
  let e1 = Tlm1.Energy.create table in
  let b1 = Tlm1.Bus.create ~kernel ~decoder ~energy:e1 ?sink () in
  let e2 = Tlm2.Energy.create table in
  let b2 = Tlm2.Bus.create ~kernel ~decoder ~energy:e2 ?sink () in
  {
    m_kernel = kernel;
    m_platform = platform;
    m_e1 = e1;
    m_b1 = b1;
    m_e2 = e2;
    m_b2 = b2;
    m_front =
      ( Sim.Kernel.find kernel ~name:"tlm1-bus",
        Sim.Kernel.find kernel ~name:"tlm2-bus" );
    m_extra_reset = extra_reset;
  }

let reset_live_materials m =
  Sim.Kernel.reset m.m_kernel;
  Soc.Platform.reset m.m_platform;
  (* The bus resets also rewind their energy models; the layer-2 model
     returns to its creation parameters, undoing in-run calibration. *)
  Tlm1.Bus.reset m.m_b1;
  Tlm2.Bus.reset m.m_b2;
  m.m_extra_reset ()

let live_adaptive ?sink ?extra_slaves ?materials ~policy () =
  let m =
    match materials with
    | Some m -> m
    | None -> live_materials ?sink ?extra_slaves ()
  in
  let kernel = m.m_kernel and platform = m.m_platform in
  let e1 = m.m_e1 and b1 = m.m_b1 in
  let table = Power.Characterization.default
  and base_params = Tlm2.Energy.default_params in
  (* The layer-2 calibration scale: re-derived from every refined window
     (see [on_close] below) and applied to the layer-2 model when its
     front-end is first routed to. *)
  let l2_scale = ref 1.0 in
  let have_scale = ref false in
  let l2 =
    lazy
      (Tlm2.Energy.set_params m.m_e2 (scale_l2_params !l2_scale base_params);
       (m.m_b2, m.m_e2))
  in
  let measure (level : Hier.Level.t) =
    let component_pj = Soc.Platform.components_energy_pj platform in
    let iface, bus_pj =
      match level with
      | Hier.Level.L1 -> (Tlm1.Bus.iface b1, Tlm1.Energy.total_pj e1)
      | Hier.Level.L2 ->
        let b2, e2 = Lazy.force l2 in
        (Tlm2.Bus.iface b2, Tlm2.Energy.total_pj e2)
      | Hier.Level.Rtl | Hier.Level.L3 ->
        invalid_arg
          "Core.Runner.live_adaptive: live sessions switch L1/L2 only"
    in
    {
      Hier.Engine.cycles = Sim.Kernel.now kernel;
      txns = Iface.completed_txns iface;
      beats = Iface.completed_beats iface;
      errors = Iface.error_txns iface;
      bus_pj;
      component_pj;
      profile = None;
    }
  in
  (* Hierarchical in-run calibration (DESIGN.md section 12): during
     refined windows every completed transaction is also fed to two
     scratch layer-2 models — the base parameters and all-zero
     parameters.  At each refined-window close the window satisfies
     E_L1 = X + f x A (X the traffic-driven part, A the
     assumption-driven part), so f rescales the lump constants to what
     layer 1 actually measured on this workload. *)
  let zero_params = scale_l2_params 0.0 base_params in
  let cal_full = Tlm2.Energy.create ~params:base_params table in
  let cal_zero = Tlm2.Energy.create ~params:zero_params table in
  let cal_full_pj = ref 0.0 in
  let cal_zero_pj = ref 0.0 in
  let win_cal_full = ref 0.0 in
  let win_cal_zero = ref 0.0 in
  let pending_cal = ref None in
  let feed_cal () =
    match !pending_cal with
    | None -> ()
    | Some txn ->
      pending_cal := None;
      cal_full_pj :=
        !cal_full_pj
        +. Tlm2.Energy.address_phase_pj cal_full txn
        +. Tlm2.Energy.data_phase_pj cal_full txn;
      cal_zero_pj :=
        !cal_zero_pj
        +. Tlm2.Energy.address_phase_pj cal_zero txn
        +. Tlm2.Energy.data_phase_pj cal_zero txn
  in
  let on_close (seg : Hier.Splice.seg) =
    if seg.Hier.Splice.level = Hier.Level.L1 then begin
      let x = !cal_zero_pj -. !win_cal_zero in
      let a = !cal_full_pj -. !win_cal_full -. x in
      win_cal_full := !cal_full_pj;
      win_cal_zero := !cal_zero_pj;
      if a > 0.0 then begin
        let f_window = Float.max 0.0 ((seg.Hier.Splice.bus_pj -. x) /. a) in
        (* Latest-window-dominant blend: track the workload's phases
           instead of averaging them away. *)
        l2_scale :=
          (if !have_scale then (0.1 *. !l2_scale) +. (0.9 *. f_window)
           else f_window);
        have_scale := true;
        if Lazy.is_val l2 then
          Tlm2.Energy.set_params (snd (Lazy.force l2))
            (scale_l2_params !l2_scale base_params)
      end
    end
  in
  let session =
    Hier.Engine.Live.create ?sink
      ~now:(fun () -> Sim.Kernel.now kernel)
      ~on_close ~policy ~measure ()
  in
  let port_of (level : Hier.Level.t) =
    match level with
    | Hier.Level.L1 -> Iface.port (Tlm1.Bus.iface b1)
    | Hier.Level.L2 -> Iface.port (Tlm2.Bus.iface (fst (Lazy.force l2)))
    | Hier.Level.Rtl | Hier.Level.L3 -> assert false
  in
  let active = ref (Iface.port (Tlm1.Bus.iface b1)) in
  let routed = ref None in
  (* Park the inactive front-end: both buses share the kernel, and the
     one not carrying the window's traffic is quiescent, so skipping its
     idle steps is behaviour- and measurement-neutral.  Both run until
     the first transaction is routed. *)
  let h1, h2 = m.m_front in
  Sim.Kernel.unpark h1;
  Sim.Kernel.unpark h2;
  let route level =
    if !routed <> Some level then begin
      (match (level : Hier.Level.t) with
      | Hier.Level.L1 ->
        Sim.Kernel.park h2;
        Sim.Kernel.unpark h1
      | Hier.Level.L2 ->
        Sim.Kernel.park h1;
        Sim.Kernel.unpark h2
      | Hier.Level.Rtl | Hier.Level.L3 -> ());
      routed := Some level;
      active := port_of level
    end
  in
  let last_seen = ref (-1) in
  let port =
    {
      Ec.Port.try_submit =
        (fun txn ->
          (* try_submit repeats while the bus is busy; route and account
             each transaction once, on first sight. *)
          if txn.Ec.Txn.id <> !last_seen then begin
            last_seen := txn.Ec.Txn.id;
            feed_cal ();
            let level =
              Hier.Engine.Live.next_level session ~addr:txn.Ec.Txn.addr
            in
            route level;
            if level = Hier.Level.L1 then pending_cal := Some txn
          end;
          !active.Ec.Port.try_submit txn);
      poll = (fun id -> !active.Ec.Port.poll id);
      retire = (fun id -> !active.Ec.Port.retire id);
    }
  in
  let t0 = Unix.gettimeofday () in
  let finish () =
    feed_cal ();
    let s = Hier.Engine.Live.finish session in
    let wall_seconds = Unix.gettimeofday () -. t0 in
    {
      splice = s;
      cycles = s.Hier.Splice.total_cycles;
      txns = s.Hier.Splice.total_txns;
      beats = s.Hier.Splice.total_beats;
      errors = s.Hier.Splice.total_errors;
      bus_pj = s.Hier.Splice.total_bus_pj;
      component_pj = s.Hier.Splice.total_component_pj;
      switches = s.Hier.Splice.switches;
      wall_seconds;
      final_system = None;
    }
  in
  { kernel; port; platform; session; finish }
