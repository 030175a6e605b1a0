(* Workload [sweep]: a warm design-space sweep.

   Set-up captures everything cold: plans of the Table-3 mix and four
   seeded traces at layers 1 and 2, bridged 3-master fabric plans at both levels, the contention
   grid and the JCVM exploration cells, all memoized in one pool.  One
   work cycle then evaluates 16 scaled characterization tables over every
   trace and fabric plan, reruns the contention grid and every
   exploration cell — only the compile fold and memo reads run. *)

let cycles_per_second = 40.0
let study_levels = Core.Level.[ L1; L2 ]
let study_n = 128
let scales = List.init 16 (fun k -> 0.5 +. (0.0625 *. float_of_int k))
let nominal = 8 (* index of scale 1.0 *)

type state = {
  pool : Core.Pool.t;
  traces : Ec.Trace.t list;
  plans : (Core.Level.t * Ec.Trace.t * Compile.Plan.t) list;
  points : Compile.Eval.point list;
  masters : (Core.Contention.kind * Ec.Trace.t) list;
  fabric : (Core.Level.t * Compile.Plan.fabric) list;
  cells : (Jcvm.Configs.t * Jcvm.Applets.t) list;
  capture_s : float;
  capture_txns : int;
}

let build ~seed =
  let pool = Core.Pool.create () in
  let table = Core.Runner.characterize () in
  let traces =
    Core.Workloads.table3_trace ~n:2000 :: List.init 4 (fun i -> Util.seeded_trace ~seed i 2000)
  in
  let masters = Util.seeded_masters ~seed ~n:256 Core.Contention.Bridged in
  let (plans, fabric), capture_s =
    Util.time (fun () ->
        ( List.concat_map
            (fun level ->
              List.map
                (fun t -> (level, t, Core.Runner.compile_trace ~level ~mode:`Serial ~pool t))
                traces)
            [ Core.Level.L1; L2 ],
          List.map
            (fun level ->
              ( level,
                Core.Contention.compile ~level ~topology:Core.Contention.Bridged ~pool masters ))
            [ Core.Level.L1; L2 ] ))
  in
  let master_txns = List.fold_left (fun a (_, t) -> a + Ec.Trace.total_txns t) 0 masters in
  let cells =
    List.concat_map
      (fun applet -> List.map (fun config -> (config, applet)) Jcvm.Configs.standard)
      Jcvm.Applets.all
  in
  (* Cold capture of the grid and the cells, memoized in [pool]. *)
  ignore (Core.Contention.study ~n:study_n ~levels:study_levels ~compiled:true ~pool ~domains:1 ());
  List.iter
    (fun (config, applet) ->
      ignore (Core.Exploration.run_one ~level:Core.Level.L1 ~pool ~config applet))
    cells;
  {
      pool;
      traces;
      plans;
      points =
        List.map
          (fun s -> { Compile.Eval.table = Power.Characterization.scale table s; l2_params = None })
          scales;
      masters;
      fabric;
      cells;
      capture_s;
      capture_txns = (2 * List.fold_left (fun a t -> a + Ec.Trace.total_txns t) 0 traces) + (2 * master_txns);
    }

let sum_pj f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let level_name l = String.lowercase_ascii (Core.Level.to_string l)

let ops st =
  let multi (_, _, plan) =
    ( "replay_multi",
      "Core.Runner",
      fun () ->
        let rs = Core.Runner.replay_multi ~points:st.points plan in
        let r0 = List.hd rs in
        {
          Bench.txns = r0.txns * List.length rs;
          units = List.length rs;
          cycles = r0.cycles;
          pj = sum_pj (fun (r : Core.Runner.result) -> r.bus_pj) rs;
        } )
  in
  let fabric (_, plan) =
    ( "eval_fabric_multi",
      "Compile.Eval",
      fun () ->
        let os = Compile.Eval.eval_fabric_multi plan ~points:st.points in
        let m = plan.Compile.Plan.f_meta in
        {
          Bench.txns = Array.fold_left ( + ) 0 m.f_txns * List.length os;
          units = List.length os;
          cycles = m.f_cycles;
          pj = sum_pj (fun (o : Compile.Eval.fabric_outcome) -> o.fabric_pj) os;
        } )
  in
  let study =
    ( "study",
      "Core.Contention",
      fun () ->
        let rs =
          Core.Contention.study ~n:study_n ~levels:study_levels ~compiled:true ~pool:st.pool
            ~domains:1 ()
        in
        {
          Bench.txns =
            List.fold_left
              (fun a (c : Core.Contention.result) ->
                List.fold_left (fun a (m : Core.Contention.master_row) -> a + m.txns) a c.rows)
              0 rs;
          units = List.length rs;
          cycles = List.fold_left (fun a (c : Core.Contention.result) -> a + c.cycles) 0 rs;
          pj = sum_pj (fun (c : Core.Contention.result) -> c.fabric_pj) rs;
        } )
  in
  let cell (config, applet) =
    ( "explore_cell",
      "Core.Exploration",
      fun () ->
        let row = Core.Exploration.run_one ~level:Core.Level.L1 ~pool:st.pool ~config applet in
        { Bench.txns = row.transactions; units = 1; cycles = row.cycles; pj = row.bus_pj } )
  in
  List.map multi st.plans @ List.map fabric st.fabric @ [ study ] @ List.map cell st.cells

let setup ~seed () =
  let st = build ~seed in
  let ops = ops st in
  ((st, ops, Bench.warm ops), ignore)

let result_figures (r : Core.Runner.result) =
  [ float_of_int r.cycles; float_of_int r.txns; float_of_int r.transitions; r.bus_pj ]

let fabric_figures pj (rows : Core.Contention.master_row list) =
  pj :: List.map (fun (m : Core.Contention.master_row) -> m.energy_pj) rows

(* Compiled sweep points against interpreted runs of the same point:
   every figure bit for bit.  The sampled point and plans follow the
   seed. *)
let check_points ~seed checks st =
  let rng = Util.seeded_rng ~seed 77 in
  let k = Sim.Rng.int rng (List.length scales) in
  let point = List.nth st.points k in
  List.iter
    (fun level ->
      let candidates = List.filter (fun (l, _, _) -> l = level) st.plans in
      let _, trace, plan = List.nth candidates (Sim.Rng.int rng (List.length candidates)) in
      let compiled = List.nth (Core.Runner.replay_multi ~points:st.points plan) k in
      let interpreted =
        Core.Runner.run_trace ~level ~mode:`Serial ~table:point.Compile.Eval.table trace
      in
      Util.same checks
        ("sweep point equals interpreted run at " ^ level_name level)
        ~expected:(result_figures interpreted) ~actual:(result_figures compiled))
    [ Core.Level.L1; L2 ];
  List.iter
    (fun (level, plan) ->
      let o = List.nth (Compile.Eval.eval_fabric_multi plan ~points:st.points) k in
      let interpreted =
        Core.Contention.run ~level ~topology:Core.Contention.Bridged ~table:point.table st.masters
      in
      Util.same checks
        ("sweep fabric point equals interpreted run at " ^ level_name level)
        ~expected:(fabric_figures interpreted.fabric_pj interpreted.rows)
        ~actual:(o.fabric_pj :: Array.to_list o.buckets);
      Util.same checks "sweep fabric buckets sum to total" ~expected:[ o.fabric_pj ]
        ~actual:[ Array.fold_left ( +. ) 0.0 o.buckets ])
    st.fabric;
  let grid compiled =
    Core.Contention.study ~n:study_n ~levels:study_levels ~compiled ?pool:(if compiled then Some st.pool else None)
      ~domains:1 ()
  in
  let flat rs =
    List.concat_map (fun (c : Core.Contention.result) -> fabric_figures c.fabric_pj c.rows) rs
  in
  let warm = grid true in
  Util.same checks "sweep contention grid equals interpreted grid" ~expected:(flat (grid false))
    ~actual:(flat warm);
  List.iter
    (fun (c : Core.Contention.result) ->
      Util.same checks "sweep grid buckets sum to total" ~expected:[ c.fabric_pj ]
        ~actual:[ sum_pj (fun (m : Core.Contention.master_row) -> m.energy_pj) c.rows ])
    warm;
  let row_figures (r : Core.Exploration.row) =
    [ float_of_int r.cycles; float_of_int r.transactions; r.bus_pj ]
  in
  List.iteri
    (fun i (config, applet) ->
      if i mod 7 = seed mod 7 then
        Util.same checks "sweep exploration cell equals interpreted cell"
          ~expected:(row_figures (Core.Exploration.run_one ~level:Core.Level.L1 ~config applet))
          ~actual:
            (row_figures (Core.Exploration.run_one ~level:Core.Level.L1 ~pool:st.pool ~config applet)))
    st.cells

let run ~seed ~seconds ~traced ~checks r =
  let (st, ops, digest), setup_s = Util.repeated_setup 7 (setup ~seed) in
  let cycles = Util.cycles_for ~seconds ~per_second:cycles_per_second in
  let log, cycle_figures, failed_ops = Bench.run_cycles ~r ~cycles ~traced ~warm:digest ops in
  check_points ~seed checks st;
  (* Energy accuracy of the nominal-table point of the fixed Table-3 mix
     against the gate level, so the figure moves only when a model does. *)
  let table3 = List.hd st.traces in
  let rtl = (Core.Runner.run_trace ~level:Core.Level.Rtl ~mode:`Serial table3).bus_pj in
  let err level =
    let _, _, plan = List.find (fun (l, t, _) -> l = level && t == table3) st.plans in
    Util.energy_err_pct
      [ ((List.nth (Core.Runner.replay_multi ~points:st.points plan) nominal).Core.Runner.bus_pj, rtl) ]
  in
  let layer_metrics =
    if not traced then []
    else
      (* Host time per delivered point (or cell) of one operation kind. *)
      let per kind scale =
        let ops = Util.ops_of ~kind ~traced:true log in
        scale *. Util.ratio (Util.total_ms ops) (Util.total_units ops)
      in
      [
        ("compile.capture_us_per_txn", 1e6 *. Util.ratio st.capture_s (float_of_int st.capture_txns));
        ("compile.fold_ns_per_point", per "replay_multi" 1e6);
        ("compile.fabric_fold_us_per_point", per "eval_fabric_multi" 1e3);
        ("core.explore_cell_fold_us", per "explore_cell" 1e3);
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
