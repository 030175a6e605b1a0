type topology = Single | Bridged

let topology_to_string = function Single -> "single" | Bridged -> "bridged"

let topology_of_string = function
  | "single" -> Some Single
  | "bridged" -> Some Bridged
  | _ -> None

type kind = Cpu | Dma | Crypto

let kind_to_string = function Cpu -> "cpu" | Dma -> "dma" | Crypto -> "crypto"

let kind_of_string = function
  | "cpu" -> Some Cpu
  | "dma" -> Some Dma
  | "crypto" -> Some Crypto
  | _ -> None

(* Well outside the Figure-1 map (which tops out below 16 MiB). *)
let far_base = 0x400_0000
let far_size = 0x1_0000
let far_window = (far_base, far_base + far_size)

type master_row = {
  kind : kind;
  txns : int;
  beats : int;
  errors : int;
  grants : int;
  energy_pj : float;
}

type result = {
  level : Level.t;
  policy : Ec.Arbiter.policy;
  topology : topology;
  cycles : int;
  fabric_pj : float;
  bus_pj : float;
  bridge_pj : float;
  crossings : int;
  rows : master_row list;
  wall_seconds : float;
}

let tap_of_meter = function
  | None -> None
  | Some m ->
    Some
      {
        Ec.Fabric.cycles = (fun () -> Power.Meter.cycles m);
        last_cycle_pj = (fun () -> Power.Meter.last_cycle_pj m);
      }

(* The far RAM: a plain word store with sub-word lane handling, enough to
   give bridged traffic a real slave without a second platform.  The
   store-reset closure is what lets a pooled fabric session wipe the far
   memory back to creation state. *)
let far_slave () =
  let store = Array.make (far_size / 4) 0 in
  let word addr = (addr - far_base) lsr 2 in
  let read ~addr ~width =
    let w = store.(word addr) in
    match width with
    | Ec.Txn.W32 -> w
    | Ec.Txn.W16 -> (w lsr (8 * (addr land 2))) land 0xFFFF
    | Ec.Txn.W8 -> (w lsr (8 * (addr land 3))) land 0xFF
  in
  let write ~addr ~width ~value =
    let i = word addr in
    match width with
    | Ec.Txn.W32 -> store.(i) <- value land 0xFFFF_FFFF
    | Ec.Txn.W16 ->
      let sh = 8 * (addr land 2) in
      let mask = 0xFFFF lsl sh in
      store.(i) <- store.(i) land lnot mask lor ((value land 0xFFFF) lsl sh)
    | Ec.Txn.W8 ->
      let sh = 8 * (addr land 3) in
      let mask = 0xFF lsl sh in
      store.(i) <- store.(i) land lnot mask lor ((value land 0xFF) lsl sh)
  in
  ( Ec.Slave.make
      ~cfg:(Ec.Slave_cfg.make ~name:"far-ram" ~base:far_base ~size:far_size ())
      ~read ~write,
    fun () -> Array.fill store 0 (Array.length store) 0 )

(* The far side of a bridged topology: a second bus of the same level on
   the same clock, decoding only the far RAM. *)
type far_side = {
  far_attach : Ec.Fabric.far;
  far_bus : System.bus;
  far_reset_store : unit -> unit;
}

(* Energy of one beat crossing the bridge, in pJ. *)
let crossing_pj_per_beat = 1.5

let build_far ~kernel ~level ~table =
  let slave, far_reset_store = far_slave () in
  let far_bus =
    System.create_bus ~kernel ~decoder:(Ec.Decoder.create [ slave ]) ~level
      ~estimate:true ~record_profile:false ~table ~rtl_params:None
      ~l2_params:None
  in
  {
    far_attach =
      {
        Ec.Fabric.far_port = Iface.port (System.iface far_bus);
        far_tap = tap_of_meter (System.bus_meter far_bus);
        window = far_window;
        latency = 2;
        crossing_pj_per_beat;
      };
    far_bus;
    far_reset_store;
  }

(* A fabric session: the durable hardware of one contention
   configuration — near system, optional far side, fabric, and one trace
   master per port.  Pooled checkouts reset all of it and re-arm the
   masters with the caller's traces (DESIGN.md section 18). *)
type session = {
  s_system : System.t;
  s_fabric : Ec.Fabric.t;
  s_masters : Soc.Trace_master.t array;
  s_far : far_side option;
}

let session_kind : session Pool.kind = Pool.kind ()
let fabric_plan_kind : Compile.Plan.fabric Pool.kind = Pool.kind ()

let validate ~fn ~level masters =
  let fail why = invalid_arg ("Core.Contention." ^ fn ^ ": " ^ why) in
  if masters = [] then fail "no masters";
  if level = Level.L3 then fail "fabric masters drive timed buses (rtl/l1/l2)"

let build_session ~level ~policy ~topology ?mode ~table masters =
  let system = System.create ~level ~table () in
  let kernel = System.kernel system in
  let far =
    match topology with
    | Single -> None
    | Bridged -> Some (build_far ~kernel ~level ~table)
  in
  let n = List.length masters in
  let fabric =
    Ec.Fabric.create ~masters:n ~policy ~bus:(System.port system)
      ?tap:(tap_of_meter (System.meter system))
      ?far:(Option.map (fun f -> f.far_attach) far)
      ()
  in
  (* Registration order matters: the buses' own edge processes are
     already in place (System/build_far), so the fabric's falling-edge
     sampler sees each meter cycle after the energy models close it, and
     matured bridge crossings are forwarded before the masters (created
     below) submit new work. *)
  Sim.Kernel.on_rising kernel ~name:"fabric" (fun _ ->
      Ec.Fabric.on_rising fabric);
  Sim.Kernel.on_falling kernel ~name:"fabric" (fun _ ->
      Ec.Fabric.on_falling fabric);
  let tms =
    List.mapi
      (fun m (k, trace) ->
        Soc.Trace_master.create ~kernel
          ~port:(Ec.Fabric.port fabric m)
          ~name:(Printf.sprintf "master%d-%s" m (kind_to_string k))
          ?mode trace)
      masters
  in
  { s_system = system; s_fabric = fabric; s_masters = Array.of_list tms; s_far = far }

let reset_session ?mode s masters =
  System.reset s.s_system;
  (match s.s_far with
  | Some f ->
    System.reset_bus f.far_bus;
    f.far_reset_store ()
  | None -> ());
  Ec.Fabric.reset s.s_fabric;
  List.iteri
    (fun m (_, trace) ->
      Soc.Trace_master.reset ?mode ~sink:None s.s_masters.(m) trace)
    masters

let drained s () =
  Array.for_all Soc.Trace_master.finished s.s_masters
  && (not (Ec.Fabric.busy s.s_fabric))
  && (not (System.bus_busy s.s_system))
  && match s.s_far with
     | Some f -> not (Iface.busy (System.iface f.far_bus))
     | None -> true

(* Deadline of a fabric run, in cycles. *)
let max_cycles = 4_000_000

let execute ~level ~policy ~topology s masters =
  let kernel = System.kernel s.s_system in
  let t0 = Unix.gettimeofday () in
  let cycles = Sim.Kernel.run_until kernel ~max_cycles (drained s) in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let fabric = s.s_fabric in
  let rows =
    List.mapi
      (fun m (k, _) ->
        {
          kind = k;
          txns = Ec.Fabric.master_txns fabric m;
          beats = Ec.Fabric.master_beats fabric m;
          errors = Ec.Fabric.master_errors fabric m;
          grants = Ec.Fabric.master_grants fabric m;
          energy_pj = Ec.Fabric.master_pj fabric m;
        })
      masters
  in
  {
    level;
    policy;
    topology;
    cycles;
    fabric_pj = Ec.Fabric.total_pj fabric;
    bus_pj =
      (System.bus_energy_pj s.s_system
      +. match s.s_far with Some f -> System.bus_pj f.far_bus | None -> 0.0);
    bridge_pj = Ec.Fabric.bridge_pj fabric;
    crossings = Ec.Fabric.crossings fabric;
    rows;
    wall_seconds;
  }

(* ------------------------------------------------------------------ *)
(* Compiled fabric plans (DESIGN.md section 18)                        *)

(* One instrumented interpreted pass: the bus taps record the near (and
   far) bodies while the fabric observer records each
   master's bucket-add order as pure integers.  The grant schedule is
   parameter-independent once workload, policy and topology are fixed,
   which the replay cross-check below asserts: evaluating the fresh plan
   at the capture table must reproduce the interpreted buckets bit for
   bit. *)
let compile ?(level = Level.L1) ?(policy = Ec.Arbiter.Round_robin)
    ?(topology = Single) ?(mode = `Pipelined) ?pool masters =
  validate ~fn:"compile" ~level masters;
  (* As [Runner.compile_trace]: the gate level and layer 1 record the
     same wire bodies, so an rtl plan is captured at layer 1, keyed by
     [Runner.plan_key], and comes back at the requested level. *)
  let build () =
    let level = if level = Level.Rtl then Level.L1 else level in
    let table = Power.Characterization.default in
    let s = build_session ~level ~policy ~topology ~mode ~table masters in
    let n = Array.length s.s_masters in
    let near_plan = System.capture s.s_system in
    let far_plan =
      Option.map (fun f -> System.capture ~bus:f.far_bus s.s_system) s.s_far
    in
    let rec_ = Compile.Plan.fabric_recorder ~masters:n in
    Ec.Fabric.set_observer s.s_fabric
      (Some (Compile.Plan.fabric_observer rec_));
    let kernel = System.kernel s.s_system in
    let cycles = Sim.Kernel.run_until kernel ~max_cycles (drained s) in
    Ec.Fabric.set_observer s.s_fabric None;
    let near = near_plan ~cycles in
    let far_plan = Option.map (fun finish -> finish ~cycles) far_plan in
    let fabric = s.s_fabric in
    let plan =
      Compile.Plan.fabric_finish rec_
        ~meta:
          {
            Compile.Plan.f_masters = n;
            f_cycles = cycles;
            f_txns = Array.init n (Ec.Fabric.master_txns fabric);
            f_beats = Array.init n (Ec.Fabric.master_beats fabric);
            f_errors = Array.init n (Ec.Fabric.master_errors fabric);
            f_grants = Array.init n (Ec.Fabric.master_grants fabric);
            f_crossings = Ec.Fabric.crossings fabric;
            f_cross_pj_per_beat =
              (match topology with
              | Bridged -> crossing_pj_per_beat
              | Single -> 0.0);
            f_component_pj = System.component_energy_pj s.s_system;
          }
        ~near ~far_plan
    in
    (* Replay cross-check: the compiled schedule replayed at the capture
       table must be bit-identical to the interpreted pass it was
       recorded from. *)
    let o =
      List.hd
        (Compile.Eval.eval_fabric_multi plan
           ~points:[ { Compile.Eval.table; l2_params = None } ])
    in
    for m = 0 to n - 1 do
      if o.Compile.Eval.buckets.(m) <> Ec.Fabric.master_pj fabric m then
        failwith
          (Printf.sprintf
             "Core.Contention.compile: replay cross-check failed \
              (master %d: compiled %.17g pJ, interpreted %.17g pJ)"
             m
             o.Compile.Eval.buckets.(m)
             (Ec.Fabric.master_pj fabric m))
    done;
    if
      o.Compile.Eval.fabric_pj <> Ec.Fabric.total_pj fabric
      || o.Compile.Eval.fabric_bridge_pj <> Ec.Fabric.bridge_pj fabric
    then failwith "Core.Contention.compile: replay cross-check failed (totals)";
    plan
  in
  let plan =
    match pool with
    | Some p ->
      let key =
        Printf.sprintf "fabric-plan:%s:%s" (Runner.plan_key ~level ~mode)
          (Pool.fingerprint (policy, topology, masters))
      in
      Pool.memo p fabric_plan_kind ~tag:"fabric" ~key build
    | None -> build ()
  in
  let at = Compile.Plan.at_level level in
  { plan with near = at plan.near; far_plan = Option.map at plan.far_plan }

(* ------------------------------------------------------------------ *)

let run ?(level = Level.L1) ?(policy = Ec.Arbiter.Round_robin)
    ?(topology = Single) ?mode ?(table = Power.Characterization.default) ?pool
    masters =
  validate ~fn:"run" ~level masters;
  let build () = build_session ~level ~policy ~topology ?mode ~table masters in
  let execute s = execute ~level ~policy ~topology s masters in
  match pool with
  | Some p ->
    (* The key is the session's wiring: everything reset does not undo.
       Traces and issue mode are re-armed per checkout. *)
    let key =
      "fabric:"
      ^ Pool.fingerprint (level, table, policy, topology, List.map fst masters)
    in
    Pool.with_session p session_kind ~key ~build
      ~reset:(fun s -> reset_session ?mode s masters)
      execute
  | None -> execute (build ())

let default_masters ~n topology =
  let src =
    match topology with Bridged -> far_base | Single -> Soc.Platform.Map.flash_base
  in
  [
    (Cpu, Workloads.table3_trace ~n);
    (Dma, Workloads.dma_trace ~words:n ~src ());
    (Crypto, Workloads.crypto_trace ~blocks:(max 1 (n / 8)) ());
  ]

let study_cells ~levels ~policies =
  List.concat_map
    (fun level ->
      List.concat_map
        (fun policy ->
          List.map (fun topology -> (level, policy, topology)) [ Single; Bridged ])
        policies)
    levels

(* A study cell's answer: priced at one table, it keeps no plan. *)
let cell_kind : result Pool.kind = Pool.kind ()

let study ?(n = 512) ?(levels = Level.timed) ?(compiled = false) ?pool
    ?domains () =
  let policies =
    [
      Ec.Arbiter.Fixed_priority;
      Ec.Arbiter.Round_robin;
      Ec.Arbiter.Weighted [| 4; 2; 1 |];
    ]
  in
  (* Grid cells are fully independent simulations, so the sweep maps
     across domains, all sharing the pool's results and sessions. *)
  Parallel.map ?domains
    (fun (level, policy, topology) ->
      let interpret ?pool () =
        run ~level ~policy ~topology ?pool (default_masters ~n topology)
      in
      match pool with
      | Some p when compiled ->
        (* Keyed by coordinates, so a hit builds no trace; a miss runs a
           fresh session, so the pool keeps no session per cell. *)
        let t0 = Unix.gettimeofday () in
        let key = "study:" ^ Pool.fingerprint (n, level, policy, topology) in
        let r = Pool.memo p cell_kind ~tag:"fabric" ~key interpret in
        { r with wall_seconds = Unix.gettimeofday () -. t0 }
      | _ -> interpret ?pool ())
    (study_cells ~levels ~policies)

let render_study results =
  let share row r =
    if r.fabric_pj > 0.0 then
      Printf.sprintf "%s (%.0f%%)" (Report.pj row.energy_pj)
        (100.0 *. row.energy_pj /. r.fabric_pj)
    else Report.pj row.energy_pj
  in
  let body =
    List.map
      (fun r ->
        let cell k =
          match List.find_opt (fun row -> row.kind = k) r.rows with
          | Some row -> share row r
          | None -> "-"
        in
        [
          Level.to_string r.level;
          Ec.Arbiter.policy_to_string r.policy;
          topology_to_string r.topology;
          string_of_int r.cycles;
          Report.pj r.fabric_pj;
          Report.pj r.bridge_pj;
          cell Cpu;
          cell Dma;
          cell Crypto;
        ])
      results
  in
  "Contention study: per-master attributed bus energy\n"
  ^ Report.table
      ~header:
        [
          "Level"; "Arbiter"; "Topology"; "Cycles"; "Fabric"; "Bridge";
          "CPU"; "DMA"; "Crypto";
        ]
      body
