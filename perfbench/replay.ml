(* Workload [replay]: the paper's Table 3 as interpreted trace replay.

   One work cycle replays the Table-3 mix and three seeded random traces
   at the gate level, layer 1, layer 2 and layer 3, one adaptive run
   over the mixed-phase trace and one interpreted 3-master contention
   run at layer 1 — every call on sessions from one pool.  Nothing here
   compiles a plan or crosses a socket. *)

let levels = Core.Level.[ (Rtl, "rtl"); (L1, "l1"); (L2, "l2"); (L3, "l3") ]

(* Work cycles per second of requested run length, sized so a run takes
   about the requested time on a 2-core container. *)
let cycles_per_second = 8.0

type state = {
  pool : Core.Pool.t;
  table : Power.Characterization.t;
  traces : Ec.Trace.t list;
  mixed : Ec.Trace.t;
  masters : (Core.Contention.kind * Ec.Trace.t) list;
  last_adaptive : Core.Runner.adaptive_run option ref;
  last_fabric : Core.Contention.result option ref;
}

let build ~seed =
  {
    pool = Core.Pool.create ();
    table = Core.Runner.characterize ();
    traces =
      Core.Workloads.table3_trace ~n:2000 :: List.init 3 (fun i -> Util.seeded_trace ~seed i 3000);
    mixed = Core.Workloads.mixed_phase_trace ~n:2048 ();
    masters = Util.seeded_masters ~seed ~n:384 Core.Contention.Single;
    last_adaptive = ref None;
    last_fabric = ref None;
  }

let ops st =
  let run_trace level trace () =
    let r = Core.Runner.run_trace ~level ~mode:`Serial ~table:st.table ~pool:st.pool trace in
    { Bench.txns = r.txns; units = 1; cycles = r.cycles; pj = r.bus_pj }
  in
  List.concat_map
    (fun trace ->
      List.map
        (fun (level, name) -> ("run_trace:" ^ name, "Core.Runner", run_trace level trace))
        levels)
    st.traces
  @ [
      ( "run_adaptive",
        "Core.Runner",
        fun () ->
          let a =
            Core.Runner.run_adaptive ~table:st.table ~pool:st.pool
              ~policy:Core.Experiments.adaptive_policy st.mixed
          in
          st.last_adaptive := Some a;
          { Bench.txns = a.txns; units = 1; cycles = a.cycles; pj = a.bus_pj } );
      ( "contention:l1",
        "Core.Contention",
        fun () ->
          let c =
            Core.Contention.run ~level:Core.Level.L1 ~table:st.table ~pool:st.pool st.masters
          in
          st.last_fabric := Some c;
          let txns = List.fold_left (fun a (m : Core.Contention.master_row) -> a + m.txns) 0 c.rows in
          { Bench.txns; units = 1; cycles = c.cycles; pj = c.fabric_pj } );
    ]

(* Cold build, characterization and one warm pass over the cycle. *)
let setup ~seed () =
  let st = build ~seed in
  let ops = ops st in
  ((st, ops, Bench.warm ops), ignore)

(* Host time of [kind]'s traced calls per simulated unit counted by
   [per] (cycles or transactions), in ns. *)
let ns_per ~per log kind =
  let ops = Util.ops_of ~kind ~traced:true log in
  1e6 *. Util.ratio (Util.total_ms ops) (per ops)

(* 1 - t(no estimator) / t(estimator) on the same trace and level,
   medians of alternating pooled runs — the Table 3 method. *)
let estimate_share r st level =
  let trace = List.nth st.traces 1 in
  let t estimate =
    snd
      (Util.time (fun () ->
           Span.with_ r ~layer:"Core.Runner" "run_trace:estimate-probe" (fun () ->
               ignore
                 (Core.Runner.run_trace ~level ~estimate ~mode:`Serial ~table:st.table
                    ~pool:st.pool trace))))
  in
  ignore (t true, t false);
  let pairs = List.init 9 (fun _ -> (t true, t false)) in
  1.0 -. Util.ratio (Util.median (List.map snd pairs)) (Util.median (List.map fst pairs))

let run ~seed ~seconds ~traced ~checks r =
  let (st, ops, digest), setup_s = Util.repeated_setup 7 (setup ~seed) in
  let cycles = Util.cycles_for ~seconds ~per_second:cycles_per_second in
  let log, cycle_figures, failed_ops = Bench.run_cycles ~r ~cycles ~traced ~warm:digest ops in
  (* Energy accuracy against the gate level on the fixed Table-3 mix, so
     the figure moves only when a model does. *)
  let energy level =
    (Core.Runner.run_trace ~level ~mode:`Serial ~table:st.table (List.hd st.traces)).bus_pj
  in
  let err level = Util.energy_err_pct [ (energy level, energy Core.Level.Rtl) ] in
  (match !(st.last_fabric) with
  | Some c ->
    let sum = List.fold_left (fun a (m : Core.Contention.master_row) -> a +. m.energy_pj) 0.0 c.rows in
    Util.same checks "replay fabric buckets sum to total" ~expected:[ c.fabric_pj ] ~actual:[ sum ]
  | None -> Util.check checks "replay fabric ran" false);
  let layer_metrics =
    if not traced then []
    else
      let adaptive_windows, adaptive_switches =
        match !(st.last_adaptive) with
        | Some a -> (float_of_int (List.length a.splice.windows), float_of_int a.switches)
        | None -> (0.0, 0.0)
      in
      let adaptive_ms = Util.ops_of ~kind:"run_adaptive" ~traced:true log in
      let fabric = Util.ops_of ~kind:"contention:l1" ~traced:true log in
      let grants =
        match !(st.last_fabric) with
        | Some c -> List.fold_left (fun a (m : Core.Contention.master_row) -> a + m.grants) 0 c.rows
        | None -> 0
      in
      [
        ("rtl.ns_per_cycle", ns_per ~per:Util.total_cycles log "run_trace:rtl");
        ("tlm1.ns_per_cycle", ns_per ~per:Util.total_cycles log "run_trace:l1");
        ("tlm2.ns_per_cycle", ns_per ~per:Util.total_cycles log "run_trace:l2");
        ("tlm3.ns_per_txn", ns_per ~per:Util.total_txns log "run_trace:l3");
        ("power.l1_estimate_share", estimate_share r st Core.Level.L1);
        ("power.l2_estimate_share", estimate_share r st Core.Level.L2);
        ("hier.windows", adaptive_windows);
        ("hier.switches", adaptive_switches);
        ( "hier.us_per_window",
          1000.0
          *. Util.ratio (Util.total_ms adaptive_ms)
               (adaptive_windows *. float_of_int (List.length adaptive_ms)) );
        ("ec.fabric_grants", float_of_int grants);
        ("ec.fabric_ns_per_cycle", 1e6 *. Util.ratio (Util.total_ms fabric) (Util.total_cycles fabric));
      ]
      @ Bench.pool_metrics r st.pool
  in
  {
    Bench.log;
    attempted = cycles * List.length ops;
    cycle_figures;
    setup_s;
    l1_err = err Core.Level.L1;
    l2_err = err Core.Level.L2;
    failed_ops;
    digest;
    layer_metrics;
    recorders = [ r ];
  }
