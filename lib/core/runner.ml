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

(* Message-layer replay (DESIGN.md section 17.4): serial blocking
   replay of the trace's transactions through [Ec.Port.transact] on the
   system's layer-2 carrier bus.  Gaps are honoured as idle cycles;
   issue is inherently serial — each transaction blocks until it
   finishes — which is the layer-3 timing abstraction (no pipelining,
   no read/write overlap).  Energy comes from the carrier's layer-2
   model. *)
let replay_bridged system trace =
  let kernel = System.kernel system in
  let port = System.port system in
  let ids = Ec.Txn.Id_gen.create () in
  let t0 = Sim.Kernel.now kernel in
  List.iter
    (fun item ->
      let item = Ec.Trace.instantiate ids item in
      Sim.Kernel.run kernel ~cycles:item.Ec.Trace.gap;
      ignore (Ec.Port.transact ~kernel port item.Ec.Trace.txn))
    trace;
  Sim.Kernel.now kernel - t0

(* The gate level and layer 1 record one wire body, so an rtl plan is
   captured at layer 1, the cheaper estimator, under layer 1's key.  An
   L3 key drops the mode: [replay_bridged] has no issue discipline. *)
let capture_level : Level.t -> Level.t = function Rtl -> L1 | l -> l

let plan_key ~level ~mode =
  match capture_level level, mode with
  | L3, _ -> Level.to_string level
  | level, `Serial -> Level.to_string level ^ ":serial"
  | level, `Pipelined -> Level.to_string level ^ ":pipelined"

(* One interpreted resolution run with the taps attached; everything the
   evaluator needs — the wire image, lump events, the table-independent
   scalar results — lands in the plan.  The capture table is irrelevant:
   no point parameter reaches what the taps record.  Layer 3 replays
   serially through [Ec.Port.transact] on the capture system's carrier,
   as [run_trace] does.  The plan comes back at [level], which picks
   its fold. *)
let compile_trace ?(level = Level.L1) ?(mode = `Pipelined) ?init ?pool trace =
  let build () =
    let system = System.create ~level:(capture_level level) ~estimate:true () in
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
    Compile.Plan.at_level level (Pool.memo p plan_kind ~tag:"trace" ~key build)
  | _ -> Compile.Plan.at_level level (build ())

(* A result off a plan: the scalars come from the capture run, the
   energy from one point of the evaluation. *)
let result_of_plan plan ~wall_seconds (o : Compile.Eval.outcome) =
  let m = plan.Compile.Plan.meta in
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
      ?l2_params ()
  in
  (* A run arms its session the same way on a fresh build and on a
     reset checkout: the run's sink onto the bus's interface, then
     [init]. *)
  let execute system run =
    Iface.set_sink (System.iface (System.bus system)) sink;
    (match init with Some f -> f system | None -> ());
    let t0 = Unix.gettimeofday () in
    let cycles = run () in
    let wall_seconds = Unix.gettimeofday () -. t0 in
    record_run_energy sink system ~cycles;
    collect system ~cycles ~wall_seconds
  in
  (* Everything reset does not undo goes into the key; the sink, the
     issue mode and the trace itself are armed per run. *)
  let key () =
    Printf.sprintf "trace:%s:%b:%b:%s" (Level.to_string level) estimate
      record_profile
      (Pool.fingerprint (table, rtl_params, l2_params))
  in
  if level = Level.L3 then
    (* Serial blocking replay needs no kernel-registered master, so a
       pooled L3 run reuses a bare carrier system. *)
    let execute system =
      execute system (fun () -> replay_bridged system trace)
    in
    match pool with
    | Some p ->
      Pool.with_session p system_kind ~key:(key ()) ~build:build_system
        ~reset:System.reset execute
    | None -> execute (build_system ())
  else
    (* The master is registered with the session and armed per run. *)
    let build () =
      let system = build_system () in
      let master =
        Soc.Trace_master.create ~kernel:(System.kernel system)
          ~port:(System.port system) []
      in
      { ts_system = system; ts_master = master }
    in
    let execute s =
      Soc.Trace_master.reset ~mode ~sink s.ts_master trace;
      let kernel = System.kernel s.ts_system in
      execute s.ts_system (fun () -> Soc.Trace_master.run s.ts_master ~kernel ())
    in
    match pool with
    | Some p ->
      Pool.with_session p trace_kind ~key:(key ())
        ~build ~reset:(fun s -> System.reset s.ts_system) execute
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
    let system = System.create ~level ~record_profile () in
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
    Iface.set_sink (System.iface (System.bus system)) sink;
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
  | Some p when vcd = None ->
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
    (* VCD recording hooks the session for its whole life — such runs
       always build fresh.  The recorder's falling-edge sampler
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
(* Mixed-level runs (DESIGN.md sections 10 and 12)                     *)

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
}

let adaptive_txns_per_second r =
  if r.wall_seconds <= 0.0 then 0.0 else float_of_int r.txns /. r.wall_seconds

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
  front_pj : Level.t -> float;
  finish : unit -> adaptive_run;
}

(* One bus front-end of a live session: a level's bus on the shared
   kernel and decoder, and its bus process, which routing parks. *)
type front = { level : Level.t; bus : System.bus; proc : Sim.Kernel.handle }

(* The durable hardware of a live session — everything a pooled run
   reuses after a reset, and what an unpooled one builds for itself.
   [m_port] is the port masters hold for the materials' lifetime; each
   session re-points it: submissions and retirements to its router,
   polls straight to the routed front-end. *)
type live_materials = {
  m_system : System.t;  (* kernel, platform and the finest front's bus *)
  m_fronts : front list;  (* one per level the policy names, finest first *)
  m_table : Power.Characterization.t;
  m_port : Ec.Port.t;
  mutable m_master : Soc.Trace_master.t option;
      (* registered by the first trace replay, armed by every one *)
  m_extra_reset : unit -> unit;
}

let timed_levels ~fn policy =
  let levels = Hier.Policy.levels policy in
  if List.mem Level.L3 levels then
    invalid_arg
      ("Core.Runner." ^ fn ^ ": adaptive windows drive timed buses (rtl/l1/l2)");
  levels

let bus_process_name = function
  | System.Rtl_bus _ -> "rtl-bus"
  | System.L1_bus _ -> "tlm1-bus"
  | System.L2_bus _ -> "tlm2-bus"

let live_materials ?(table = Power.Characterization.default)
    ?(record_profile = false) ?peripheral_clock ?extra_slaves
    ?(extra_reset = fun () -> ()) ~policy () =
  let first, rest =
    match timed_levels ~fn:"live_materials" policy with
    | first :: rest -> (first, rest)
    | [] -> assert false (* a policy decides at least one level *)
  in
  let system =
    System.create ~level:first ~record_profile ~table ?peripheral_clock
      ?extra_slaves ()
  in
  let kernel = System.kernel system in
  let decoder = Soc.Platform.decoder (System.platform system) in
  let front level bus =
    { level; bus; proc = Sim.Kernel.find kernel ~name:(bus_process_name bus) }
  in
  let fronts =
    front first (System.bus system)
    :: List.map
         (fun level ->
           front level
             (System.create_bus ~kernel ~decoder ~level ~estimate:true
                ~record_profile ~table ~rtl_params:None ~l2_params:None))
         rest
  in
  (* A copy: sessions re-point it, never the bus's own port. *)
  let port =
    let p = System.port system in
    { Ec.Port.try_submit = p.try_submit; poll = p.poll; retire = p.retire }
  in
  (* The bus-mastering peripherals are routed like any other master. *)
  Soc.Platform.connect_bus (System.platform system) port;
  {
    m_system = system;
    m_fronts = fronts;
    m_table = table;
    m_port = port;
    m_master = None;
    m_extra_reset = extra_reset;
  }

let reset_live_materials m =
  Sim.Kernel.reset (System.kernel m.m_system);
  Soc.Platform.reset (System.platform m.m_system);
  (* The bus resets also rewind their energy models; the layer-2 model
     returns to its creation parameters, undoing in-run calibration. *)
  List.iter (fun f -> System.reset_bus f.bus) m.m_fronts;
  m.m_extra_reset ()

let no_txn = Ec.Txn.single_read ~id:(-1) 0

let live_adaptive ?sink ~policy m =
  let levels = timed_levels ~fn:"live_adaptive" policy in
  if levels <> List.map (fun f -> f.level) m.m_fronts then
    invalid_arg
      "Core.Runner.live_adaptive: materials built for another policy's levels";
  let kernel = System.kernel m.m_system in
  let platform = System.platform m.m_system in
  let front_of level = List.find (fun f -> f.level = level) m.m_fronts in
  let measure level =
    let f = front_of level in
    let iface = System.iface f.bus in
    {
      Hier.Splice.level;
      cycles = Sim.Kernel.now kernel;
      txns = Iface.completed_txns iface;
      beats = Iface.completed_beats iface;
      errors = Iface.error_txns iface;
      bus_pj = System.bus_pj f.bus;
      component_pj = Soc.Platform.components_energy_pj platform;
      profile = Option.bind (System.bus_meter f.bus) Power.Meter.profile;
    }
  in
  (* Hierarchical in-run calibration (DESIGN.md section 12): every
     transaction retired in a layer-1 window is also fed to two scratch
     layer-2 models — the base parameters and all-zero parameters.  At
     each layer-1 window close the window satisfies E_L1 = X + f x A (X
     the traffic-driven part, A the assumption-driven part), so f
     rescales the layer-2 lump constants to what layer 1 actually
     measured on this workload. *)
  let base_params = Tlm2.Energy.default_params in
  let l2_energy =
    List.find_map
      (fun f ->
        match f.bus with System.L2_bus b -> Tlm2.Bus.energy b | _ -> None)
      m.m_fronts
  in
  let cal_full = Tlm2.Energy.create ~params:base_params m.m_table in
  let cal_zero =
    Tlm2.Energy.create ~params:(scale_l2_params 0.0 base_params) m.m_table
  in
  let cal_full_pj = ref 0.0 and cal_zero_pj = ref 0.0 in
  let win_cal_full = ref 0.0 and win_cal_zero = ref 0.0 in
  let l2_scale = ref 1.0 and have_scale = ref false in
  let feed_cal txn =
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
    if seg.Hier.Splice.level = Level.L1 then begin
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
        Option.iter
          (fun e ->
            Tlm2.Energy.set_params e (scale_l2_params !l2_scale base_params))
          l2_energy
      end
    end
  in
  let session =
    Hier.Engine.Live.create ?sink ~on_close ~policy ~measure ()
  in
  (* Every front-end runs until the first transaction is routed, so the
     one that takes it has run from cycle 0 exactly as in a pure run;
     the others then rewind to never having run and stay parked until a
     window is routed to them.  From then on exactly one front-end
     steps: the routed one, and it carries the run's sink. *)
  List.iter (fun f -> Sim.Kernel.unpark f.proc) m.m_fronts;
  let port = m.m_port in
  let routed = ref None in
  let active = ref (System.port m.m_system) in
  let route level =
    match !routed with
    | Some cur when cur.level = level -> ()
    | cur ->
      let f = front_of level in
      (match cur with
      | Some cur ->
        Sim.Kernel.park cur.proc;
        Sim.Kernel.unpark f.proc
      | None ->
        List.iter
          (fun g ->
            if g != f then begin
              Sim.Kernel.park g.proc;
              System.reset_bus g.bus
            end)
          m.m_fronts);
      routed := Some f;
      Iface.set_sink (System.iface f.bus) sink;
      active := Iface.port (System.iface f.bus);
      port.Ec.Port.poll <- !active.Ec.Port.poll
  in
  (* The transactions accepted by the routed front-end and not yet
     retired: a window closes only once this is empty. *)
  let inflight = Ec.Id_store.create ~dummy:no_txn () in
  let last_seen = ref (-1) in
  let admit txn =
    (* try_submit repeats while refused; route and account each
       transaction once, when the session first admits it. *)
    txn.Ec.Txn.id = !last_seen
    ||
    match
      Hier.Engine.Live.next_level session ~addr:txn.Ec.Txn.addr
        ~quiesced:(Ec.Id_store.is_empty inflight)
    with
    | None -> false
    | Some level ->
      last_seen := txn.Ec.Txn.id;
      route level;
      true
  in
  let retire id =
    let txn = Ec.Id_store.find_default inflight id ~default:no_txn in
    if txn != no_txn then begin
      (match !routed with
      | Some { level = Level.L1; _ } -> feed_cal txn
      | _ -> ());
      Ec.Id_store.remove inflight id
    end;
    !active.Ec.Port.retire id
  in
  port.Ec.Port.try_submit <-
    (fun txn ->
      admit txn
      && !active.Ec.Port.try_submit txn
      && begin
        Ec.Id_store.set inflight txn.Ec.Txn.id txn;
        true
      end);
  port.Ec.Port.poll <- !active.Ec.Port.poll;
  port.Ec.Port.retire <- retire;
  let t0 = Unix.gettimeofday () in
  let finish () =
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
    }
  in
  let front_pj level = System.bus_pj (front_of level).bus in
  { kernel; port; front_pj; finish }

let live_kind : live_materials Pool.kind = Pool.kind ()

(* The replaying master rides in the materials: registered once, after
   the front-ends as in a pure run, and armed by every replay, so a
   pooled kernel never stacks masters. *)
let trace_master m =
  match m.m_master with
  | Some master -> master
  | None ->
    let master =
      Soc.Trace_master.create ~kernel:(System.kernel m.m_system) ~port:m.m_port
        []
    in
    m.m_master <- Some master;
    master

let run_adaptive ?record_profile ?table ?peripheral_clock ?(mode = `Pipelined)
    ?init ?sink ?pool ~policy trace =
  let levels = timed_levels ~fn:"run_adaptive" policy in
  let build () =
    live_materials ?table ?record_profile ?peripheral_clock ~policy ()
  in
  let execute m =
    let master = trace_master m in
    Soc.Trace_master.reset ~mode ~sink master trace;
    (match init with Some f -> f m.m_system | None -> ());
    let live = live_adaptive ?sink ~policy m in
    ignore (Soc.Trace_master.run master ~kernel:live.kernel ());
    live.finish ()
  in
  match pool with
  | Some p ->
    (* The key holds what a reset does not undo. *)
    let key =
      Printf.sprintf "adaptive:%s:%s"
        (String.concat "," (List.map Level.to_string levels))
        (Pool.fingerprint (record_profile, table, peripheral_clock))
    in
    Pool.with_session p live_kind ~key ~build ~reset:reset_live_materials
      execute
  | None -> execute (build ())
