(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (section 4), then measures the simulation kernels
   with Bechamel (one benchmark group per table/figure).

   Usage:
     dune exec bench/main.exe               -- everything
     dune exec bench/main.exe -- tables      -- only the paper tables
     dune exec bench/main.exe -- micro       -- only the Bechamel runs
     dune exec bench/main.exe -- micro --json -- Bechamel estimates as JSON
     dune exec bench/main.exe -- adaptive    -- adaptive mixed-level comparison
     dune exec bench/main.exe -- serve-soak  -- sustained multi-client daemon soak
     dune exec bench/main.exe -- ablations   -- only the sensitivity studies
     dune exec bench/main.exe -- smoke       -- reduced-size table pipeline
                                                (wired into dune runtest) *)

open Bechamel
open Toolkit

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Paper tables and figures (measured, not sampled).                   *)
(* ------------------------------------------------------------------ *)

(* [smoke] keeps every stage of the table pipeline but shrinks the
   transaction counts and the exploration grid so `dune runtest` can
   afford to exercise it on every run. *)
let print_tables ?(smoke = false) () =
  section "Section 4.1 - Verification and Evaluation";
  let rows = Core.Experiments.run_accuracy () in
  print_endline (Core.Experiments.render_table1 rows);
  print_newline ();
  print_endline (Core.Experiments.render_table2 rows);
  section "Section 4.2 - Simulation Performance";
  let perf =
    if smoke then Core.Experiments.run_performance ~txns:500 ~repetitions:1 ()
    else Core.Experiments.run_performance ()
  in
  print_endline (Core.Experiments.render_table3 perf);
  section "Figure 6 - Energy sampling semantics of the layer-2 interface";
  print_endline (Core.Experiments.render_figure6 (Core.Experiments.run_figure6 ()));
  section "Section 4.3 / Figure 7 - HW/SW interface exploration (JCVM)";
  let rows =
    if smoke then Core.Exploration.run ~applets:[ Jcvm.Applets.fib ] ()
    else Core.Exploration.run ()
  in
  print_endline (Core.Exploration.render rows);
  section "Adaptive exploration sweep (DESIGN.md section 12)";
  let c =
    if smoke then
      Core.Experiments.run_exploration_comparison
        ~applets:[ Jcvm.Applets.fib ] ()
    else Core.Experiments.run_exploration_comparison ()
  in
  print_endline (Core.Experiments.render_exploration_comparison c)

(* The adaptive mixed-level comparison: accuracy and T/s of the spliced
   run against the pure levels, plus the ratio the trajectory tracks. *)
let print_adaptive ?(smoke = false) () =
  section "Adaptive mixed-level simulation (hier engine)";
  let s =
    (* 2048 transactions cover a sensitive phase, so the smoke run
       actually switches levels. *)
    if smoke then Core.Experiments.run_adaptive_comparison ~txns:2_048 ~repetitions:1 ()
    else Core.Experiments.run_adaptive_comparison ()
  in
  print_endline (Core.Experiments.render_adaptive s);
  (* The adaptive run is the last row by construction. *)
  match List.rev s.Core.Experiments.rows with
  | adaptive :: _ ->
    Printf.printf "adaptive vs pure-L1 T/s ratio: %.2f\n"
      adaptive.Core.Experiments.speedup_vs_l1
  | [] -> ()

let print_ablations () =
  section "Ablations - sensitivity of the reproduction to modelling choices";
  print_endline (Core.Ablations.run_all ())

let print_extensions () =
  section "Extensions - cache/bus and bus-coding explorations";
  let sort = Soc.Asm.assemble (Core.Test_programs.bubble_sort ~n:10) in
  print_endline
    (Core.Cache_study.render (Core.Cache_study.run ~name:"bubble-sort" sort));
  print_newline ();
  let exercise = Soc.Asm.assemble Core.Test_programs.bus_exercise in
  print_endline
    (Core.Coding_study.render
       (Core.Coding_study.run_program ~name:"bus-exercise" exercise))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: cost of one workload unit per model.     *)
(* ------------------------------------------------------------------ *)

(* Tables 1 and 2 are produced by running the verification sequences
   through each abstraction level. *)
let bench_accuracy =
  let run level () =
    ignore (Core.Runner.run_trace ~level ~mode:`Serial Core.Verify_seqs.combined)
  in
  Test.make_grouped ~name:"table1+2/accuracy-stimulus"
    [
      Test.make ~name:"gate-level" (Staged.stage (run Core.Level.Rtl));
      Test.make ~name:"tl-layer-1" (Staged.stage (run Core.Level.L1));
      Test.make ~name:"tl-layer-2" (Staged.stage (run Core.Level.L2));
    ]

(* Table 3: 256 transactions of the de-Bruijn mix per run. *)
let bench_performance =
  let trace = Core.Workloads.table3_trace ~n:256 in
  let run level estimate () =
    ignore (Core.Runner.run_trace ~level ~estimate ~mode:`Serial trace)
  in
  Test.make_grouped ~name:"table3/256-transactions"
    [
      Test.make ~name:"l1-with-estimation" (Staged.stage (run Core.Level.L1 true));
      Test.make ~name:"l1-without-estimation"
        (Staged.stage (run Core.Level.L1 false));
      Test.make ~name:"l2-with-estimation" (Staged.stage (run Core.Level.L2 true));
      Test.make ~name:"l2-without-estimation"
        (Staged.stage (run Core.Level.L2 false));
      Test.make ~name:"gate-level" (Staged.stage (run Core.Level.Rtl true));
    ]

(* Adaptive engine: one mixed-phase workload through the pure levels and
   the spliced run, so the trajectory records the pure-vs-adaptive T/s
   ratio (adaptive should sit between pure-l1 and pure-l2). *)
let bench_adaptive =
  let trace = Core.Workloads.mixed_phase_trace ~n:512 () in
  let pure level () =
    ignore (Core.Runner.run_trace ~level ~mode:`Serial trace)
  in
  let adaptive () =
    ignore
      (Core.Runner.run_adaptive ~mode:`Serial
         ~policy:Core.Experiments.adaptive_policy trace)
  in
  Test.make_grouped ~name:"adaptive/mixed-512"
    [
      Test.make ~name:"pure-l1" (Staged.stage (pure Core.Level.L1));
      Test.make ~name:"pure-l2" (Staged.stage (pure Core.Level.L2));
      Test.make ~name:"adaptive" (Staged.stage adaptive);
    ]

(* Adaptive exploration: one applet's full configuration grid, swept
   pure and adaptively — the trajectory tracks the sweep-level speedup
   (the DESIGN.md section 12 acceptance ratio, adaptive vs pure-l1). *)
let bench_adaptive_explore =
  let sweep level () =
    ignore
      (Core.Exploration.run ~level ~applets:[ Jcvm.Applets.fib ] ~domains:1 ())
  in
  let adaptive =
    let policy = Hier.Policy.for_exploration () in
    fun () ->
      ignore
        (Core.Exploration.run ~policy ~applets:[ Jcvm.Applets.fib ] ~domains:1
           ())
  in
  Test.make_grouped ~name:"adaptive-explore/fib-grid"
    [
      Test.make ~name:"pure-l1" (Staged.stage (sweep Core.Level.L1));
      Test.make ~name:"pure-l2" (Staged.stage (sweep Core.Level.L2));
      Test.make ~name:"adaptive" (Staged.stage adaptive);
    ]

(* Figure 6: cycle-accurate profiling cost. *)
let bench_figure6 =
  Test.make_grouped ~name:"figure6/profiled-run"
    [
      Test.make ~name:"l1-profiled"
        (Staged.stage (fun () -> ignore (Core.Experiments.run_figure6 ())));
    ]

(* Figure 7 / section 4.3: one applet on representative configurations. *)
let bench_exploration =
  let run name () =
    let config =
      List.find (fun c -> c.Jcvm.Configs.name = name) Jcvm.Configs.standard
    in
    ignore (Core.Exploration.run_one ~config Jcvm.Applets.fib)
  in
  Test.make_grouped ~name:"figure7/fib-applet"
    [
      Test.make ~name:"w16-dedicated" (Staged.stage (run "w16-dedicated"));
      Test.make ~name:"w32-packed" (Staged.stage (run "w32-packed"));
      Test.make ~name:"w16-cmd+data" (Staged.stage (run "w16-cmd+data"));
    ]

(* Instrumentation overhead: the same 256-transaction replay with the
   sink disabled (the production configuration, allocation-free on the
   per-cycle paths) and enabled (one shared sink, reset per run so the
   ring never saturates differently between iterations). *)
let bench_obs_overhead =
  let trace = Core.Workloads.table3_trace ~n:256 in
  let plain level () =
    ignore (Core.Runner.run_trace ~level ~mode:`Serial trace)
  in
  let sink = Obs.Sink.create () in
  let instrumented level () =
    Obs.Sink.reset sink;
    ignore (Core.Runner.run_trace ~level ~mode:`Serial ~sink trace)
  in
  Test.make_grouped ~name:"overhead/obs"
    [
      Test.make ~name:"rtl-no-sink" (Staged.stage (plain Core.Level.Rtl));
      Test.make ~name:"rtl-with-sink"
        (Staged.stage (instrumented Core.Level.Rtl));
      Test.make ~name:"l1-no-sink" (Staged.stage (plain Core.Level.L1));
      Test.make ~name:"l1-with-sink"
        (Staged.stage (instrumented Core.Level.L1));
    ]

(* Session pooling: the same replay with a session rebuilt from scratch
   every iteration versus drawn from a persistent pool and reset in
   place, plus the full exploration grid swept fresh-per-cell versus on
   the sweep's internal pool (one reset session per configuration shape,
   reused across applets).  The fresh/pooled gap is the per-run setup
   cost the pool eliminates; the grid pair is the wall-clock acceptance
   ratio tracked in EXPERIMENTS.md. *)
let bench_pool =
  let trace = Core.Workloads.table3_trace ~n:64 in
  let fresh level () =
    ignore (Core.Runner.run_trace ~level ~mode:`Serial trace)
  in
  let pool = Core.Pool.create () in
  let pooled level () =
    ignore (Core.Runner.run_trace ~level ~mode:`Serial ~pool trace)
  in
  (* [compiled:false] keeps this pair measuring session reuse alone —
     the compiled-plan path has its own group below. *)
  let grid use_pool () =
    ignore (Core.Exploration.run ~domains:1 ~pool:use_pool ~compiled:false ())
  in
  Test.make_grouped ~name:"pool/sessions"
    [
      Test.make ~name:"l1-64txn-fresh-build" (Staged.stage (fresh Core.Level.L1));
      Test.make ~name:"l1-64txn-pooled-reset" (Staged.stage (pooled Core.Level.L1));
      Test.make ~name:"rtl-64txn-fresh-build" (Staged.stage (fresh Core.Level.Rtl));
      Test.make ~name:"rtl-64txn-pooled-reset" (Staged.stage (pooled Core.Level.Rtl));
      Test.make ~name:"explore-grid-fresh" (Staged.stage (grid false));
      Test.make ~name:"explore-grid-pooled" (Staged.stage (grid true));
    ]

(* Trace compilation (DESIGN.md section 14): the 64-transaction replay
   interpreted, pooled-interpreted, and as a compiled-plan evaluation —
   plus the same evaluation for 35 characterization points at once, and
   the full 35-cell exploration grid interpreted versus compiled-warm.
   The single-point compiled replay is the >=5x acceptance target
   against the pooled-interpreted baseline; the grid pair is the >=2.5x
   target (EXPERIMENTS.md). *)
let bench_compiled =
  let trace = Core.Workloads.table3_trace ~n:64 in
  let pool = Core.Pool.create () in
  let interpreted () =
    ignore (Core.Runner.run_trace ~level:Core.Level.L1 ~mode:`Serial trace)
  in
  let pooled () =
    ignore
      (Core.Runner.run_trace ~level:Core.Level.L1 ~mode:`Serial ~pool trace)
  in
  let plan =
    Core.Runner.compile_trace ~level:Core.Level.L1 ~mode:`Serial trace
  in
  let compiled () = ignore (Core.Runner.replay_compiled plan) in
  (* A 35-lane batch, one lane per exploration grid cell: scaled tables
     standing in for the capacitance/voltage variants of a sweep. *)
  let points =
    List.init 35 (fun i ->
        {
          Compile.Eval.table =
            Power.Characterization.scale Power.Characterization.default
              (0.5 +. (0.05 *. float_of_int i));
          l2_params = None;
        })
  in
  let compiled_35pt () =
    ignore (Core.Runner.replay_multi ~points plan)
  in
  let grid compiled () =
    ignore (Core.Exploration.run ~domains:1 ~compiled ())
  in
  Test.make_grouped ~name:"compiled/replay"
    [
      Test.make ~name:"l1-64txn-interpreted" (Staged.stage interpreted);
      Test.make ~name:"l1-64txn-pooled" (Staged.stage pooled);
      Test.make ~name:"l1-64txn-compiled" (Staged.stage compiled);
      Test.make ~name:"l1-64txn-compiled-35pt" (Staged.stage compiled_35pt);
      Test.make ~name:"explore-grid-interpreted" (Staged.stage (grid false));
      Test.make ~name:"explore-grid-compiled" (Staged.stage (grid true));
    ]

(* --- the simulation service measured over its own wire (§15) --- *)

let serve_run_request c =
  match
    Serve.Client.request c
      (Serve.Protocol.Run
         {
           Serve.Protocol.workload = Serve.Protocol.Table3 16;
           level = Core.Level.L1;
           mode = `Serial;
           estimate = true;
           profile = false;
           compiled = true;
         })
  with
  | Ok _ -> ()
  | Error e -> failwith ("serve bench request failed: " ^ e)

(* One daemon for the whole benchmark process, started on first use and
   deliberately leaked: it is torn down with the process. *)
let serve_env =
  lazy
    (let path = Filename.temp_file "serve-bench" ".sock" in
     Unix.unlink path;
     let server =
       Serve.Server.create ~unix_path:path ~domains:2 ~queue_depth:64 ()
     in
     ignore (Thread.create Serve.Server.serve server);
     path)

(* Multi-master fabric: the same stimulus pool replayed by 1, 2 or 3
   arbitrated masters at every timed level, so the trajectory records
   what contention costs per level and how the fabric overhead scales
   with the master count. *)
let bench_fabric =
  let masters count =
    match count with
    | 1 -> [ (Core.Contention.Cpu, Core.Workloads.table3_trace ~n:128) ]
    | n ->
      List.filteri
        (fun i _ -> i < n)
        (Core.Contention.default_masters ~n:128 Core.Contention.Single)
  in
  let run level count () =
    ignore (Core.Contention.run ~level ~mode:`Serial (masters count))
  in
  let tests =
    List.concat_map
      (fun (tag, level) ->
        List.map
          (fun count ->
            Test.make
              ~name:(Printf.sprintf "%s-%dm" tag count)
              (Staged.stage (run level count)))
          [ 1; 2; 3 ])
      [
        ("gate-level", Core.Level.Rtl);
        ("tl-layer-1", Core.Level.L1);
        ("tl-layer-2", Core.Level.L2);
      ]
  in
  Test.make_grouped ~name:"fabric/contention" tests

(* Compiled fabric replay (DESIGN.md section 18): the three-master
   bridged contention cell interpreted versus evaluated off a
   precompiled fabric plan, plus a 35-point sweep folded over the one
   decode — the multi-master analogue of [compiled/replay].  The
   single-cell pair is the >=4x acceptance target, the grid pair in the
   smoke is the >=5x target (EXPERIMENTS.md). *)
let bench_compiled_fabric =
  let masters =
    Core.Contention.default_masters ~n:128 Core.Contention.Bridged
  in
  let kinds = List.map fst masters in
  let points =
    List.init 35 (fun i ->
        {
          Compile.Eval.table =
            Power.Characterization.scale Power.Characterization.default
              (0.5 +. (0.05 *. float_of_int i));
          l2_params = None;
        })
  in
  let tests =
    List.concat_map
      (fun (tag, level) ->
        let plan =
          Core.Contention.compile ~level ~mode:`Serial
            ~topology:Core.Contention.Bridged masters
        in
        let interpreted () =
          ignore
            (Core.Contention.run ~level ~mode:`Serial
               ~topology:Core.Contention.Bridged masters)
        in
        let compiled () =
          ignore
            (Core.Contention.replay_plan ~level ~policy:Ec.Arbiter.Round_robin
               ~topology:Core.Contention.Bridged ~kinds plan)
        in
        let compiled_35pt () =
          ignore (Compile.Eval.eval_fabric_multi plan ~points)
        in
        [
          Test.make ~name:(tag ^ "-3m-interpreted") (Staged.stage interpreted);
          Test.make ~name:(tag ^ "-3m-compiled") (Staged.stage compiled);
          Test.make
            ~name:(tag ^ "-3m-compiled-35pt")
            (Staged.stage compiled_35pt);
        ])
      [ ("tl-layer-1", Core.Level.L1); ("tl-layer-2", Core.Level.L2) ]
  in
  Test.make_grouped ~name:"compiled-fabric/replay" tests

let bench_serve =
  let conn = lazy (Serve.Client.connect (`Unix (Lazy.force serve_env))) in
  let roundtrip () = serve_run_request (Lazy.force conn) in
  let stats () =
    match Serve.Client.request (Lazy.force conn) Serve.Protocol.Stats with
    | Ok _ -> ()
    | Error e -> failwith ("serve stats failed: " ^ e)
  in
  (* A live metrics subscription on its own connection, drained by a
     background thread — the with-subscriber measurement of the same
     round-trip, bounding the telemetry plane's overhead (<= 5%,
     EXPERIMENTS.md).  Metrics only: snapshots are fixed-size per tick,
     which is the plane's steady-state cost; a trace subscription does
     work proportional to the request rate by design (every span ships),
     and at bench rates on a shared core that measures the trace codec,
     not the plane.  Leaked like the daemon itself. *)
  let subscriber =
    lazy
      (let c = Serve.Client.connect (`Unix (Lazy.force serve_env)) in
       match
         Serve.Client.subscribe ~interval_ms:100 c ~streams:[ `Metrics ]
       with
       | Error e -> failwith ("serve bench subscribe failed: " ^ e)
       | Ok _ ->
         ignore
           (Thread.create
              (fun () ->
                let rec drain () =
                  match Serve.Client.read_frame c with
                  | Ok _ -> drain ()
                  | Error _ -> ()
                in
                drain ())
              ()))
  in
  let roundtrip_subscribed () =
    Lazy.force subscriber;
    serve_run_request (Lazy.force conn)
  in
  Test.make_grouped ~name:"serve/requests"
    [
      Test.make ~name:"run-16txn-roundtrip" (Staged.stage roundtrip);
      Test.make ~name:"run-16txn-roundtrip-subscribed"
        (Staged.stage roundtrip_subscribed);
      Test.make ~name:"stats-roundtrip" (Staged.stage stats);
    ]

(* Client-observed latency distribution at 1/4/8 concurrent clients over
   the Unix socket — percentiles are out of Bechamel's OLS model, so
   this section measures them directly. *)
let serve_latency_points () =
  let path = Lazy.force serve_env in
  let percentile sorted p =
    let n = Array.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  in
  List.map
    (fun clients ->
      let per_client = 40 in
      let lats = Array.make (clients * per_client) 0.0 in
      let worker i =
        let c = Serve.Client.connect (`Unix path) in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            for j = 0 to per_client - 1 do
              let t0 = Unix.gettimeofday () in
              serve_run_request c;
              lats.((i * per_client) + j) <- Unix.gettimeofday () -. t0
            done)
      in
      let t0 = Unix.gettimeofday () in
      let threads = List.init clients (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      let wall = Unix.gettimeofday () -. t0 in
      Array.sort compare lats;
      ( clients,
        percentile lats 50.0 *. 1e6,
        percentile lats 99.0 *. 1e6,
        float_of_int (clients * per_client) /. wall ))
    [ 1; 4; 8 ]

let print_serve_latency () =
  section "Serve wire latency (16-txn compiled run over the Unix socket)";
  List.iter
    (fun (clients, p50_us, p99_us, rps) ->
      Printf.printf
        "  %d client(s): p50 %8.1f us   p99 %8.1f us   %8.0f req/s\n" clients
        p50_us p99_us rps)
    (serve_latency_points ())

(* One JSON object per line: the bench --json record conventions. *)
let print_json fields = print_endline (Obs.Json.to_string (Obs.Json.Obj fields))

let print_estimates ~group ~unit estimates =
  print_json
    [
      ("group", Obs.Json.String group);
      ("unit", Obs.Json.String unit);
      ("estimates", Obs.Json.Obj estimates);
    ]

let serve_latency_json () =
  print_estimates ~group:"serve/latency" ~unit:"mixed"
    (List.concat_map
       (fun (clients, p50_us, p99_us, rps) ->
         [
           (Printf.sprintf "p50_us-%dclient" clients, Obs.Json.Float p50_us);
           (Printf.sprintf "p99_us-%dclient" clients, Obs.Json.Float p99_us);
           ( Printf.sprintf "throughput_rps-%dclient" clients,
             Obs.Json.Float rps );
         ])
       (serve_latency_points ()))

(* --- sustained soak of the daemon (§16) --- *)

(* N clients hammer one short-lived daemon with 16-txn compiled runs for
   a wall-clock window; the harness reports the latency distribution,
   throughput, busy-rejection count and the per-client fairness spread
   the round-robin queue is supposed to bound, then reconciles the
   client-observed completion count against the daemon's own telemetry
   snapshot — the two ledgers must agree exactly. *)

type soak_result = {
  soak_clients : int;
  soak_wall_s : float;
  soak_completed : int;
  soak_busy : int;
  soak_p50_us : float;
  soak_p99_us : float;
  soak_max_us : float;
  soak_rps : float;
  soak_spread : float;  (* max/min per-client completed count *)
  soak_reconciled : bool;
}

let percentile_of_sorted sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) rank))

let run_serve_soak ~clients ~duration () =
  let path = Filename.temp_file "serve-soak" ".sock" in
  Unix.unlink path;
  let server =
    Serve.Server.create ~unix_path:path ~domains:2 ~queue_depth:64 ()
  in
  let thread = Thread.create Serve.Server.serve server in
  let request =
    Serve.Protocol.Run
      {
        Serve.Protocol.workload = Serve.Protocol.Table3 16;
        level = Core.Level.L1;
        mode = `Serial;
        estimate = true;
        profile = false;
        compiled = true;
      }
  in
  let deadline = Unix.gettimeofday () +. duration in
  let completed = Array.make clients 0 in
  let busy = Array.make clients 0 in
  let lats = Array.make clients [] in
  let worker i =
    let c = Serve.Client.connect (`Unix path) in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        while Unix.gettimeofday () < deadline do
          let t0 = Unix.gettimeofday () in
          match Serve.Client.request c request with
          | Error e -> failwith ("serve soak request failed: " ^ e)
          | Ok frames ->
            let is_busy =
              List.exists
                (function
                  | Serve.Protocol.Error
                      { Serve.Protocol.code = Serve.Protocol.Busy; _ } ->
                    true
                  | _ -> false)
                frames
            in
            if is_busy then begin
              busy.(i) <- busy.(i) + 1;
              Thread.delay 0.002
            end
            else begin
              completed.(i) <- completed.(i) + 1;
              lats.(i) <- (Unix.gettimeofday () -. t0) :: lats.(i)
            end
        done)
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  (* One last connection reads the daemon's own ledger before the drain:
     its run-kind completed count must equal what the clients counted. *)
  let daemon_run_completed =
    let c = Serve.Client.connect (`Unix path) in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        match Serve.Client.request c Serve.Protocol.Metrics with
        | Error e -> failwith ("serve soak metrics failed: " ^ e)
        | Ok frames -> (
          match
            List.find_map
              (function
                | Serve.Protocol.Metrics_reply m -> Some m
                | _ -> None)
              frames
          with
          | None -> failwith "serve soak: no metrics frame"
          | Some m -> (
            match Obs.Json.member "requests" m.Serve.Protocol.snapshot with
            | None -> 0
            | Some reqs -> (
              match Obs.Json.member "run" reqs with
              | None -> 0
              | Some kind ->
                Option.value ~default:0
                  (Option.bind
                     (Obs.Json.member "completed" kind)
                     Obs.Json.int_opt)))))
  in
  Serve.Server.drain server;
  Thread.join thread;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let all =
    Array.concat (List.map Array.of_list (Array.to_list lats))
    |> Array.map (fun s -> s *. 1e6)
  in
  Array.sort compare all;
  let total_completed = Array.fold_left ( + ) 0 completed in
  let total_busy = Array.fold_left ( + ) 0 busy in
  let spread =
    let mn = Array.fold_left min max_int completed in
    let mx = Array.fold_left max 0 completed in
    if mn <= 0 then infinity else float_of_int mx /. float_of_int mn
  in
  {
    soak_clients = clients;
    soak_wall_s = wall;
    soak_completed = total_completed;
    soak_busy = total_busy;
    soak_p50_us =
      (if Array.length all = 0 then nan else percentile_of_sorted all 50.0);
    soak_p99_us =
      (if Array.length all = 0 then nan else percentile_of_sorted all 99.0);
    soak_max_us =
      (if Array.length all = 0 then nan else all.(Array.length all - 1));
    soak_rps = float_of_int total_completed /. wall;
    soak_spread = spread;
    soak_reconciled = daemon_run_completed = total_completed;
  }

let print_serve_soak ?(clients = 8) ?(duration = 10.0) () =
  section
    (Printf.sprintf
       "Serve soak (%d clients, %.0f s of 16-txn compiled runs over the \
        Unix socket)"
       clients duration);
  let s = run_serve_soak ~clients ~duration () in
  Printf.printf "  %d requests in %.1f s (%.0f req/s), %d busy rejections\n"
    s.soak_completed s.soak_wall_s s.soak_rps s.soak_busy;
  Printf.printf "  latency: p50 %.1f us   p99 %.1f us   max %.1f us\n"
    s.soak_p50_us s.soak_p99_us s.soak_max_us;
  Printf.printf "  per-client completed spread (max/min): %.2f\n"
    s.soak_spread;
  Printf.printf "  daemon telemetry reconciles with client counts: %s\n"
    (if s.soak_reconciled then "yes" else "NO");
  if not s.soak_reconciled then
    failwith "serve soak: telemetry diverged from client-observed counts"

let serve_soak_json ?(clients = 8) ?(duration = 10.0) () =
  let s = run_serve_soak ~clients ~duration () in
  print_estimates ~group:"serve/soak" ~unit:"mixed"
    Obs.Json.
      [
        ("clients", Int s.soak_clients);
        ("completed", Int s.soak_completed);
        ("busy", Int s.soak_busy);
        ( "busy_rate",
          Float
            (float_of_int s.soak_busy
            /. float_of_int (max 1 (s.soak_completed + s.soak_busy))) );
        ("p50_us", Float s.soak_p50_us);
        ("p99_us", Float s.soak_p99_us);
        ("max_us", Float s.soak_max_us);
        ("throughput_rps", Float s.soak_rps);
        ("client_spread", Float s.soak_spread);
        ("reconciled", Int (if s.soak_reconciled then 1 else 0));
      ]

(* Reduced end-to-end pass over the observability layer for the smoke
   alias: run instrumented, export Chrome JSON, parse it back. *)
let print_obs_smoke () =
  section "Observability smoke (instrumented run -> Chrome JSON -> parse)";
  let trace = Core.Workloads.table3_trace ~n:64 in
  let sink = Obs.Sink.create () in
  let r = Core.Runner.run_trace ~level:Core.Level.L1 ~mode:`Serial ~sink trace in
  let json = Obs.Chrome.to_string sink in
  (match Obs.Json.of_string json with
  | Ok _ ->
    Printf.printf
      "instrumented l1 run: %d txns, %d events, %d dropped; chrome export \
       %d bytes, parses back OK\n"
      r.Core.Runner.txns (Obs.Sink.length sink) (Obs.Sink.dropped sink)
      (String.length json)
  | Error e -> Printf.printf "chrome export does NOT parse: %s\n" e);
  print_endline (Core.Report.metrics (Obs.Sink.metrics sink))

(* Session-pool smoke: one reduced exploration grid swept fresh and
   pooled, checked row-for-row identical, with the wall-clock ratio
   printed so a pooling regression is visible in every runtest log. *)
let print_pool_smoke () =
  section "Session-pool smoke (pooled sweep = fresh sweep)";
  let applets = [ Jcvm.Applets.fib; Jcvm.Applets.gcd ] in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let fresh, fresh_s =
    timed (fun () -> Core.Exploration.run ~applets ~domains:1 ~pool:false ())
  in
  let pooled, pooled_s =
    timed (fun () -> Core.Exploration.run ~applets ~domains:1 ~pool:true ())
  in
  Printf.printf
    "%d grid cells: fresh %.3f s, pooled %.3f s (%.2fx); rows %s\n"
    (List.length fresh) fresh_s pooled_s
    (fresh_s /. Float.max 1e-9 pooled_s)
    (if fresh = pooled then "bit-identical" else "DIFFER");
  if fresh <> pooled then failwith "pooled sweep diverged from fresh sweep"

(* Compiled-replay smoke: one trace per level replayed interpreted and
   off a compiled plan, checked bit-identical with the wall-clock ratio
   printed, so a compilation regression is visible in every runtest
   log. *)
let print_compiled_smoke () =
  section "Compiled-replay smoke (plan evaluation = interpretation)";
  let trace = Core.Workloads.table3_trace ~n:64 in
  let strip (r : Core.Runner.result) =
    ( r.Core.Runner.cycles, r.Core.Runner.txns, r.Core.Runner.beats,
      r.Core.Runner.errors, r.Core.Runner.bus_pj, r.Core.Runner.component_pj,
      r.Core.Runner.transitions )
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun level ->
      let interp, interp_s =
        timed (fun () -> Core.Runner.run_trace ~level ~mode:`Serial trace)
      in
      let plan = Core.Runner.compile_trace ~level ~mode:`Serial trace in
      let compiled, compiled_s =
        timed (fun () -> Core.Runner.replay_compiled plan)
      in
      Printf.printf
        "%s 64-txn replay: interpreted %.1f us, compiled eval %.1f us \
         (%.0fx); results %s\n"
        (Core.Level.to_string level) (interp_s *. 1e6) (compiled_s *. 1e6)
        (interp_s /. Float.max 1e-9 compiled_s)
        (if strip interp = strip compiled then "bit-identical" else "DIFFER");
      if strip interp <> strip compiled then
        failwith "compiled replay diverged from interpretation")
    [ Core.Level.L1; Core.Level.L2 ]

(* Fabric smoke: at every timed level, (a) a single master behind the
   arbitrated fabric reproduces the direct single-master run bit for
   bit, and (b) with three contending masters the per-master energy
   buckets sum exactly to the fabric total — so an attribution or
   arbitration regression is visible in every runtest log. *)
let print_fabric_smoke () =
  section "Fabric smoke (degenerate = direct, attribution conserves)";
  let trace = Core.Workloads.table3_trace ~n:64 in
  List.iter
    (fun level ->
      let direct =
        Core.Runner.run_trace ~level ~mode:`Serial ~estimate:true trace
      in
      let fab =
        Core.Contention.run ~level ~mode:`Serial
          [ (Core.Contention.Cpu, trace) ]
      in
      let row = List.hd fab.Core.Contention.rows in
      (* The gate-level [total_pj] sums its two phase accumulators while
         the fabric bucket replays the meter's own commit order — same
         increments, different float association, so rtl is compared to
         an ulp; the transaction levels are meter-backed on both sides
         and must agree exactly (see DESIGN.md 17.3). *)
      let energy_ok =
        let a = direct.Core.Runner.bus_pj
        and b = row.Core.Contention.energy_pj in
        if level = Core.Level.Rtl then
          Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)
        else a = b
      in
      let exact =
        energy_ok
        && direct.Core.Runner.cycles = fab.Core.Contention.cycles
        && direct.Core.Runner.txns = row.Core.Contention.txns
      in
      let three =
        Core.Contention.run ~level ~mode:`Serial
          (Core.Contention.default_masters ~n:64 Core.Contention.Single)
      in
      let sum =
        List.fold_left
          (fun acc (r : Core.Contention.master_row) ->
            acc +. r.Core.Contention.energy_pj)
          0.0 three.Core.Contention.rows
      in
      let conserved = sum = three.Core.Contention.fabric_pj in
      Printf.printf
        "%s: 1-master fabric %s direct (%d cycles, %.1f pJ); 3-master \
         buckets %s total (%.1f pJ)\n"
        (Core.Level.to_string level)
        (if exact then "=" else "DIFFERS from")
        fab.Core.Contention.cycles row.Core.Contention.energy_pj
        (if conserved then "sum exactly to" else "DO NOT sum to")
        three.Core.Contention.fabric_pj;
      if not exact then
        Printf.printf
          "  direct: %d cycles %d txns %.6f pJ vs fabric: %d cycles %d txns \
           %.6f pJ\n"
          direct.Core.Runner.cycles direct.Core.Runner.txns
          direct.Core.Runner.bus_pj fab.Core.Contention.cycles
          row.Core.Contention.txns row.Core.Contention.energy_pj;
      if not (exact && conserved) then
        failwith "fabric smoke: attribution or degenerate equality broken")
    Core.Level.timed

(* Compiled-fabric smoke (DESIGN.md section 18): at both transaction
   levels a bridged three-master cell evaluated off its fabric plan must
   reproduce the interpreted run bit for bit with conserved buckets, and
   the L1/L2 contention grid swept warm from memoized plans must match
   the interpreted grid bit for bit.  The wall-clock ratios are printed
   for information only; speed is measured by perfbench, not runtest. *)
let print_compiled_fabric_smoke () =
  section "Compiled-fabric smoke (plan evaluation = interpretation)";
  let strip (r : Core.Contention.result) =
    ( r.Core.Contention.level, r.Core.Contention.policy,
      r.Core.Contention.topology, r.Core.Contention.cycles,
      r.Core.Contention.fabric_pj, r.Core.Contention.bus_pj,
      r.Core.Contention.bridge_pj, r.Core.Contention.crossings,
      r.Core.Contention.rows )
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let levels = [ Core.Level.L1; Core.Level.L2 ] in
  List.iter
    (fun level ->
      let masters =
        Core.Contention.default_masters ~n:256 Core.Contention.Bridged
      in
      let interp, interp_s =
        timed (fun () ->
            Core.Contention.run ~level ~mode:`Serial
              ~topology:Core.Contention.Bridged masters)
      in
      let plan =
        Core.Contention.compile ~level ~mode:`Serial
          ~topology:Core.Contention.Bridged masters
      in
      let compiled, compiled_s =
        timed (fun () ->
            Core.Contention.replay_plan ~level ~policy:Ec.Arbiter.Round_robin
              ~topology:Core.Contention.Bridged
              ~kinds:(List.map fst masters) plan)
      in
      let sum =
        List.fold_left
          (fun acc (r : Core.Contention.master_row) ->
            acc +. r.Core.Contention.energy_pj)
          0.0 compiled.Core.Contention.rows
      in
      let identical = strip interp = strip compiled in
      let conserved = sum = compiled.Core.Contention.fabric_pj in
      let speedup = interp_s /. Float.max 1e-9 compiled_s in
      Printf.printf
        "%s 3-master bridged cell: interpreted %.1f us, plan eval %.1f us \
         (%.0fx); results %s, buckets %s\n"
        (Core.Level.to_string level) (interp_s *. 1e6) (compiled_s *. 1e6)
        speedup
        (if identical then "bit-identical" else "DIFFER")
        (if conserved then "conserve" else "DO NOT conserve");
      if not identical then
        failwith "compiled fabric replay diverged from interpretation";
      if not conserved then
        failwith "compiled fabric buckets do not sum to the total")
    levels;
  let pool = Core.Pool.create () in
  let interp_grid, interp_s =
    timed (fun () -> Core.Contention.study ~n:256 ~levels ~domains:1 ())
  in
  (* First compiled pass builds and memoizes the plans; the timed sweep
     replays warm, which is the steady state of a parameter sweep. *)
  ignore (Core.Contention.study ~n:256 ~levels ~compiled:true ~pool ~domains:1 ());
  let compiled_grid, compiled_s =
    timed (fun () ->
        Core.Contention.study ~n:256 ~levels ~compiled:true ~pool ~domains:1 ())
  in
  let identical =
    List.length interp_grid = List.length compiled_grid
    && List.for_all2
         (fun a b -> strip a = strip b)
         interp_grid compiled_grid
  in
  let speedup = interp_s /. Float.max 1e-9 compiled_s in
  Printf.printf
    "%d-cell contention grid: interpreted %.2f ms, compiled-warm %.2f ms \
     (%.0fx); rows %s\n"
    (List.length interp_grid) (interp_s *. 1e3) (compiled_s *. 1e3) speedup
    (if identical then "bit-identical" else "DIFFER");
  if not identical then
    failwith "compiled contention grid diverged from interpretation"

(* Serve smoke: its own short-lived daemon (not the leaked benchmark
   one), one run request compared bit-for-bit against the direct
   in-process call, then a clean drain — so a wire or drain regression
   is visible in every runtest log. *)
let print_serve_smoke () =
  section "Serve smoke (daemon round-trip = direct run, graceful drain)";
  let path = Filename.temp_file "serve-smoke" ".sock" in
  Unix.unlink path;
  let server = Serve.Server.create ~unix_path:path ~domains:2 () in
  let thread = Thread.create Serve.Server.serve server in
  let c = Serve.Client.connect (`Unix path) in
  let frames =
    match
      Serve.Client.request c
        (Serve.Protocol.Run
           {
             Serve.Protocol.workload = Serve.Protocol.Table3 64;
             level = Core.Level.L1;
             mode = `Serial;
             estimate = true;
             profile = false;
             compiled = false;
           })
    with
    | Ok frames -> frames
    | Error e -> failwith ("serve smoke request failed: " ^ e)
  in
  let wire =
    match
      List.find_map
        (function Serve.Protocol.Result r -> Some r | _ -> None)
        frames
    with
    | Some r -> r
    | None -> failwith "serve smoke: no result frame"
  in
  let direct =
    Core.Runner.run_trace ~level:Core.Level.L1 ~mode:`Serial ~estimate:true
      ~init:Core.Runner.fill_memories
      (Core.Workloads.table3_trace ~n:64)
  in
  let identical =
    wire.Serve.Protocol.cycles = direct.Core.Runner.cycles
    && wire.Serve.Protocol.txns = direct.Core.Runner.txns
    && wire.Serve.Protocol.bus_pj = direct.Core.Runner.bus_pj
    && wire.Serve.Protocol.component_pj = direct.Core.Runner.component_pj
    && wire.Serve.Protocol.transitions = direct.Core.Runner.transitions
  in
  Printf.printf
    "daemon l1 run: %d txns, %d cycles, %.1f pJ over the wire; %s direct\n"
    wire.Serve.Protocol.txns wire.Serve.Protocol.cycles
    wire.Serve.Protocol.bus_pj
    (if identical then "bit-identical to" else "DIFFERS from");
  Serve.Client.close c;
  Serve.Server.drain server;
  Thread.join thread;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  print_endline "daemon drained cleanly";
  if not identical then failwith "serve smoke diverged from the direct run"

(* Collected OLS estimates of one benchmark group, sorted by name. *)
let measure_group group =
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let raw = Benchmark.all cfg instances group in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.map (fun (name, ols) ->
         let ns =
           match Analyze.OLS.estimates ols with
           | Some [ v ] -> v
           | Some _ | None -> nan
         in
         (name, ns))

let micro_groups =
  [
    ("table1+2/accuracy-stimulus", bench_accuracy);
    ("table3/256-transactions", bench_performance);
    ("adaptive/mixed-512", bench_adaptive);
    ("adaptive-explore/fib-grid", bench_adaptive_explore);
    ("figure6/profiled-run", bench_figure6);
    ("figure7/fib-applet", bench_exploration);
    ("overhead/obs", bench_obs_overhead);
    ("pool/sessions", bench_pool);
    ("compiled/replay", bench_compiled);
    ("serve/requests", bench_serve);
    ("fabric/contention", bench_fabric);
    ("compiled-fabric/replay", bench_compiled_fabric);
  ]

let run_micro () =
  section "Bechamel micro-benchmarks (wall time per workload unit)";
  List.iter
    (fun (_, group) ->
      List.iter
        (fun (name, ns) ->
          Printf.printf "  %-55s %12.1f us/run\n" name (ns /. 1000.0))
        (measure_group group))
    micro_groups;
  print_serve_latency ()

(* The contention-grid trajectory line: interpreted versus compiled-warm
   wall time of the L1/L2 policy-by-topology sweep, one JSON object so
   the grid speedup is tracked between PRs alongside the micro groups. *)
let contention_grid_json () =
  let levels = [ Core.Level.L1; Core.Level.L2 ] in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let pool = Core.Pool.create () in
  let interp, interp_s =
    timed (fun () -> Core.Contention.study ~n:256 ~levels ~domains:1 ())
  in
  ignore (Core.Contention.study ~n:256 ~levels ~compiled:true ~pool ~domains:1 ());
  let compiled, compiled_s =
    timed (fun () ->
        Core.Contention.study ~n:256 ~levels ~compiled:true ~pool ~domains:1 ())
  in
  let identical =
    List.for_all2
      (fun (a : Core.Contention.result) (b : Core.Contention.result) ->
        a.Core.Contention.cycles = b.Core.Contention.cycles
        && a.Core.Contention.fabric_pj = b.Core.Contention.fabric_pj
        && a.Core.Contention.rows = b.Core.Contention.rows)
      interp compiled
  in
  print_json
    Obs.Json.
      [
        ("group", String "fabric/grid");
        ("cells", Int (List.length interp));
        ("interpreted_s", Float interp_s);
        ("compiled_warm_s", Float compiled_s);
        ("speedup", Float (interp_s /. Float.max 1e-9 compiled_s));
        ("bit_identical", Bool identical);
      ]

(* One JSON object per benchmark group, one per line, nanoseconds per run:
   the machine-readable perf trajectory (BENCH_*.json) between PRs. *)
let run_micro_json () =
  List.iter
    (fun (group_name, group) ->
      let prefix = group_name ^ "/" in
      print_estimates ~group:group_name ~unit:"ns/run"
        (List.map
           (fun (name, ns) ->
             let short =
               if String.length name > String.length prefix
                  && String.sub name 0 (String.length prefix) = prefix
               then
                 String.sub name (String.length prefix)
                   (String.length name - String.length prefix)
               else name
             in
             (short, Obs.Json.Float ns))
           (measure_group group)))
    micro_groups;
  contention_grid_json ();
  serve_latency_json ();
  (* A shortened soak keeps the trajectory line cheap; the full-length
     run lives behind the dedicated serve-soak mode. *)
  serve_soak_json ~duration:3.0 ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json = List.mem "--json" args in
  let mode =
    match List.filter (fun a -> a <> "--json") args with
    | m :: _ -> m
    | [] -> "all"
  in
  (match mode with
  | "tables" -> print_tables ()
  | "smoke" ->
    print_tables ~smoke:true ();
    print_adaptive ~smoke:true ();
    print_obs_smoke ();
    print_pool_smoke ();
    print_compiled_smoke ();
    print_fabric_smoke ();
    print_compiled_fabric_smoke ();
    print_serve_smoke ();
    (* Kept light: the smoke alias runs alongside the test suites under
       [dune runtest], and the integration perf checks are wall-clock
       sensitive. *)
    print_serve_soak ~clients:2 ~duration:0.5 ()
  | "micro" -> if json then run_micro_json () else run_micro ()
  | "serve-soak" ->
    if json then serve_soak_json () else print_serve_soak ()
  | "fabric" ->
    (* Just the contention trajectory group (plus the study table when
       human-readable): the quick loop for fabric work. *)
    if json then
      List.iter
        (fun (name, ns) ->
          print_json
            Obs.Json.
              [
                ("group", String "fabric/contention");
                ("name", String name);
                ("ns_per_run", Float ns);
              ])
        (measure_group bench_fabric)
    else begin
      section "Fabric contention (wall time per run)";
      List.iter
        (fun (name, ns) ->
          Printf.printf "  %-55s %12.1f us/run\n" name (ns /. 1000.0))
        (measure_group bench_fabric);
      print_newline ();
      print_string (Core.Contention.render_study (Core.Contention.study ()))
    end
  | "adaptive" -> print_adaptive ()
  | "ablations" -> print_ablations ()
  | "extensions" -> print_extensions ()
  | _ ->
    print_tables ();
    print_adaptive ();
    if json then run_micro_json () else run_micro ();
    print_ablations ();
    print_extensions ());
  if not json then print_newline ()
