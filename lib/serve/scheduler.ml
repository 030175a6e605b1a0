let energy_chunk_lines = 512

(* Compiled plans are memoized in the server pool, shared by every
   worker.  The key fingerprints the wire descriptor of the workload,
   not the materialized trace, so a memo hit never builds or parses the
   trace.
   Release build on a 2-core Xeon VM: for a 192-line inline trace,
   parsing (~55 us) plus fingerprinting the parsed trace (~25 us) costs
   four times fingerprinting its lines (~19 us); for [Table3 64],
   generating (~2.8 us) plus fingerprinting the trace (~9.7 us) costs
   forty times fingerprinting the descriptor (~0.3 us).
   [Runner.compile_trace]'s own memo keys by the trace, so it would pay
   that work on every request. *)
let plan_kind : Compile.Plan.t Core.Pool.kind = Core.Pool.kind ()

let workload_key (w : Protocol.workload) =
  match w with
  | Protocol.Table3 n -> ("table3", n, ([] : string list))
  | Protocol.Mixed_phase n -> ("mixed", n, [])
  | Protocol.Characterization -> ("characterization", 0, [])
  | Protocol.Inline lines -> ("inline", 0, lines)

let compiled_plan ~pool ~level ~mode workload =
  let key =
    Core.Pool.fingerprint
      ("serve-plan", Core.Runner.plan_key ~level ~mode, workload_key workload)
  in
  (* The gate level and layer 1 share the key and the body. *)
  Compile.Plan.at_level level
    (Core.Pool.memo pool plan_kind ~tag:"trace" ~key (fun () ->
         Core.Runner.compile_trace ~level ~mode ~init:Core.Runner.fill_memories
           (Protocol.trace_of_workload workload)))

let send_profile ~send profile =
  let rec chunks seq = function
    | [] -> ()
    | lines ->
      let rec split n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | l :: rest -> split (n - 1) (l :: acc) rest
      in
      let chunk, rest = split energy_chunk_lines [] lines in
      send (Protocol.Energy (seq, chunk));
      chunks (seq + 1) rest
  in
  chunks 0 (Power.Profile.to_jsonl_lines profile)

(* A compiled run folds one point off the memoized plan.  With
   estimation off there is nothing to fold, so the run interprets: an
   estimator-less system reports the same scalars, [bus_pj = 0.] and
   [transitions = 0]. *)
let execute_run ~pool ~send (r : Protocol.run) =
  let result =
    if r.Protocol.compiled && r.Protocol.estimate then
      let plan =
        compiled_plan ~pool ~level:r.Protocol.level ~mode:r.Protocol.mode
          r.Protocol.workload
      in
      List.hd
        (Core.Runner.replay_multi ~record_profile:r.Protocol.profile
           ~points:
             [ { Compile.Eval.table = Power.Characterization.default;
                 l2_params = None } ]
           plan)
    else
      Core.Runner.run_trace ~level:r.Protocol.level ~mode:r.Protocol.mode
        ~estimate:r.Protocol.estimate ~record_profile:r.Protocol.profile
        ~init:Core.Runner.fill_memories ~pool
        (Protocol.trace_of_workload r.Protocol.workload)
  in
  (match result.Core.Runner.profile with
  | Some p when r.Protocol.profile -> send_profile ~send p
  | Some _ | None -> ());
  send (Protocol.Result (Protocol.result_body_of_runner result))

let replay_points scales =
  List.map
    (fun scale ->
      {
        Compile.Eval.table =
          Power.Characterization.scale Power.Characterization.default scale;
        l2_params = None;
      })
    scales

(* Multi-master replay: the workload trace drives the CPU master with
   the standard DMA/crypto companions alongside, exactly the wiring of
   [smartcard run --masters].  The fabric plan memoizes in the server
   pool (the ["fabric"] tag) keyed by [Runner.plan_key] and the wire
   descriptor, as [compiled_plan] is, so a repeated replay builds no
   trace and an rtl and an L1 replay share one capture. *)
let fabric_plan_kind : Compile.Plan.fabric Core.Pool.kind = Core.Pool.kind ()

let execute_fabric_replay ~pool ~send (r : Protocol.replay)
    (f : Protocol.fabric_spec) =
  let level = r.Protocol.level in
  let key =
    Core.Pool.fingerprint
      ( "serve-fabric",
        Core.Runner.plan_key ~level ~mode:r.Protocol.mode,
        f,
        workload_key r.Protocol.workload )
  in
  let plan =
    Core.Pool.memo pool fabric_plan_kind ~tag:"fabric" ~key (fun () ->
        let trace = Protocol.trace_of_workload r.Protocol.workload in
        Core.Contention.compile ~level ~policy:f.Protocol.fab_policy
          ~topology:f.Protocol.fab_topology ~mode:r.Protocol.mode
          ((Core.Contention.Cpu, trace)
          :: List.filter
               (fun (k, _) -> k <> Core.Contention.Cpu)
               (Core.Contention.default_masters
                  ~n:(max 64 (Ec.Trace.total_txns trace))
                  f.Protocol.fab_topology)))
  in
  let at = Compile.Plan.at_level level in
  let plan =
    { plan with near = at plan.near; far_plan = Option.map at plan.far_plan }
  in
  let outcomes =
    Compile.Eval.eval_fabric_multi plan ~points:(replay_points r.Protocol.scales)
  in
  let m = plan.Compile.Plan.f_meta in
  let txns = Array.fold_left ( + ) 0 m.Compile.Plan.f_txns in
  let transitions =
    plan.Compile.Plan.near.Compile.Plan.meta.Compile.Plan.transitions
    + match plan.Compile.Plan.far_plan with
      | Some p -> p.Compile.Plan.meta.Compile.Plan.transitions
      | None -> 0
  in
  List.iteri
    (fun seq (scale, (o : Compile.Eval.fabric_outcome)) ->
      send
        (Protocol.Point
           {
             Protocol.point_seq = seq;
             scale;
             point_bus_pj = o.Compile.Eval.fabric_pj;
             point_cycles = m.Compile.Plan.f_cycles;
             point_txns = txns;
             point_transitions = transitions;
             point_buckets = Some (Array.to_list o.Compile.Eval.buckets);
           }))
    (List.combine r.Protocol.scales outcomes)

let execute_replay ~pool ~send (r : Protocol.replay) =
  match r.Protocol.fabric with
  | Some f -> execute_fabric_replay ~pool ~send r f
  | None ->
    let plan =
      compiled_plan ~pool ~level:r.Protocol.level ~mode:r.Protocol.mode
        r.Protocol.workload
    in
    let results =
      Core.Runner.replay_multi ~points:(replay_points r.Protocol.scales) plan
    in
    List.iteri
      (fun seq (scale, (result : Core.Runner.result)) ->
        send
          (Protocol.Point
             {
               Protocol.point_seq = seq;
               scale;
               point_bus_pj = result.Core.Runner.bus_pj;
               point_cycles = result.Core.Runner.cycles;
               point_txns = result.Core.Runner.txns;
               point_transitions = result.Core.Runner.transitions;
               point_buckets = None;
             }))
      (List.combine r.Protocol.scales results)

let execute_explore ~pool ~send (e : Protocol.explore) =
  let applets =
    match e.Protocol.applets with
    | [] -> Jcvm.Applets.all
    | names ->
      (* Validation checked the names; keep grid order by request order. *)
      List.map
        (fun n -> List.find (fun a -> a.Jcvm.Applets.name = n) Jcvm.Applets.all)
        names
  in
  let configs =
    match e.Protocol.configs with
    | [] -> Jcvm.Configs.standard
    | names ->
      List.map
        (fun n ->
          List.find (fun c -> c.Jcvm.Configs.name = n) Jcvm.Configs.standard)
        names
  in
  let seq = ref 0 in
  List.iter
    (fun applet ->
      List.iter
        (fun config ->
          let row =
            if e.Protocol.adaptive then
              Core.Exploration.run_one
                ~policy:(Hier.Policy.for_exploration ())
                ~pool ~config applet
            else
              Core.Exploration.run_one ~level:e.Protocol.level ~pool ~config
                applet
          in
          send (Protocol.Row (!seq, Protocol.row_body_of_exploration row));
          incr seq)
        configs)
    applets

let execute ~pool ~stats ~send (request : Protocol.request) =
  match request with
  | Protocol.Run r -> execute_run ~pool ~send r
  | Protocol.Replay r -> execute_replay ~pool ~send r
  | Protocol.Explore e -> execute_explore ~pool ~send e
  | Protocol.Stats -> send (Protocol.Stats_reply (stats ()))
  | Protocol.Metrics | Protocol.Subscribe _ | Protocol.Unsubscribe
  | Protocol.Shutdown ->
    invalid_arg "Serve.Scheduler.execute: control requests never reach workers"
