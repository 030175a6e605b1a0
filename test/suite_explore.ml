(* Adaptive design-space exploration (DESIGN.md section 12): the live
   mixed-level session behind Exploration's ~policy path, its acceptance
   contract against the fixed-level sweep, and the renderer's marking
   rules. *)

let fib = Jcvm.Applets.fib
let config () = List.hd Jcvm.Configs.standard

(* The degenerate policy: a constant-L1 session must reproduce the
   fixed-level row bit for bit — energy included, because the very same
   layer-1 front-end simulates every transaction. *)
let test_constant_policy_bit_exact () =
  let config = config () in
  let fixed = Core.Exploration.run_one ~level:Core.Level.L1 ~config fib in
  let pinned =
    Core.Exploration.run_one
      ~policy:(Hier.Policy.constant Hier.Level.L1)
      ~config fib
  in
  Alcotest.(check int) "cycles" fixed.Core.Exploration.cycles
    pinned.Core.Exploration.cycles;
  Alcotest.(check int)
    "transactions" fixed.Core.Exploration.transactions
    pinned.Core.Exploration.transactions;
  Alcotest.(check (option int))
    "value" fixed.Core.Exploration.value pinned.Core.Exploration.value;
  Alcotest.(check bool)
    "correct" fixed.Core.Exploration.correct pinned.Core.Exploration.correct;
  Alcotest.(check (float 0.0))
    "bus energy" fixed.Core.Exploration.bus_pj pinned.Core.Exploration.bus_pj;
  Alcotest.(check bool)
    "carries provenance"
    (pinned.Core.Exploration.provenance <> None)
    true

(* The exploration preset: functional fields bit-identical to the pure
   layer-1 sweep, spliced energy within the declared budget of the
   layer-1 figure.  This is the acceptance contract the whole adaptive
   sweep rides on. *)
let test_adaptive_sweep_acceptance () =
  let applets = [ fib ] in
  let l1 = Core.Exploration.run ~level:Core.Level.L1 ~applets () in
  let ad =
    Core.Exploration.run ~policy:(Hier.Policy.for_exploration ()) ~applets ()
  in
  Alcotest.(check int) "same grid" (List.length l1) (List.length ad);
  List.iter2
    (fun (a : Core.Exploration.row) (b : Core.Exploration.row) ->
      let name = a.Core.Exploration.config.Jcvm.Configs.name in
      Alcotest.(check string)
        "row order" name b.Core.Exploration.config.Jcvm.Configs.name;
      Alcotest.(check int)
        (name ^ " cycles") a.Core.Exploration.cycles b.Core.Exploration.cycles;
      Alcotest.(check int)
        (name ^ " transactions") a.Core.Exploration.transactions
        b.Core.Exploration.transactions;
      Alcotest.(check (option int))
        (name ^ " value") a.Core.Exploration.value b.Core.Exploration.value;
      Alcotest.(check bool)
        (name ^ " correct") a.Core.Exploration.correct
        b.Core.Exploration.correct;
      match b.Core.Exploration.provenance with
      | None -> Alcotest.fail (name ^ ": adaptive row without provenance")
      | Some splice ->
        let err, within =
          Hier.Splice.error_vs_reference splice
            ~reference_pj:a.Core.Exploration.bus_pj
        in
        if not within then
          Alcotest.failf "%s: spliced energy %.1f pJ off by %.1f, budget %.1f"
            name b.Core.Exploration.bus_pj err
            splice.Hier.Splice.error_bound_pj)
    l1 ad

(* Provenance bookkeeping: the windows are a partition of the row — the
   per-window energies sum to the row's bus_pj and the per-window
   transaction counts to the row's transaction count. *)
let test_provenance_sums () =
  let row =
    Core.Exploration.run_one
      ~policy:(Hier.Policy.for_exploration ())
      ~config:(config ()) fib
  in
  match row.Core.Exploration.provenance with
  | None -> Alcotest.fail "adaptive row without provenance"
  | Some splice ->
    let pj =
      List.fold_left
        (fun acc (w : Hier.Splice.window) -> acc +. w.Hier.Splice.bus_pj)
        0.0 splice.Hier.Splice.windows
    in
    let txns =
      List.fold_left
        (fun acc (w : Hier.Splice.window) -> acc + w.Hier.Splice.txns)
        0 splice.Hier.Splice.windows
    in
    Alcotest.(check (float 1e-6))
      "window energies sum to the row" row.Core.Exploration.bus_pj pj;
    Alcotest.(check (float 1e-6))
      "splice total agrees" row.Core.Exploration.bus_pj
      splice.Hier.Splice.total_bus_pj;
    Alcotest.(check int)
      "window txns sum to the row" row.Core.Exploration.transactions txns

(* run_one refuses a contradictory request. *)
let test_level_policy_exclusive () =
  Alcotest.check_raises "both ~level and ~policy"
    (Invalid_argument "Core.Exploration.run_one: pass either ~level or ~policy")
    (fun () ->
      ignore
        (Core.Exploration.run_one ~level:Core.Level.L1
           ~policy:(Hier.Policy.constant Hier.Level.L1)
           ~config:(config ()) fib))

(* Renderer marking rules on a synthetic group: the cheapest correct row
   gets "*", wrong rows get "!", and a wrong row is never best even when
   its energy is the lowest of the group. *)
let render_rows () =
  let mk name bus_pj correct : Core.Exploration.row =
    let config =
      List.find (fun c -> c.Jcvm.Configs.name = name) Jcvm.Configs.standard
    in
    {
      Core.Exploration.config;
      applet = "synthetic";
      level = Core.Level.L1;
      cycles = 100;
      bus_pj;
      transactions = 10;
      steps = 5;
      value = Some 42;
      correct;
      provenance = None;
    }
  in
  [
    mk "w8-dedicated" 50.0 false;
    (* wrong AND cheapest: must not be best *)
    mk "w16-dedicated" 80.0 true;
    mk "w32-plain" 90.0 true;
  ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_render_marks () =
  let rendered = Core.Exploration.render (render_rows ()) in
  Alcotest.(check bool)
    "wrong row flagged" true
    (contains ~sub:"! w8-dedicated" rendered);
  Alcotest.(check bool)
    "cheapest correct row is best" true
    (contains ~sub:"* w16-dedicated" rendered);
  (* The wrong row must not carry the best marker even though 50 < 80. *)
  Alcotest.(check bool)
    "wrong row never best" false
    (contains ~sub:"* w8-dedicated" rendered)

(* compile_window agrees with decide on any policy: random trigger lists
   of every kind (the trigger-less constant and the exploration preset
   included), random window bounds, random observations and a random
   previous-window power.  Thresholds and powers share a grid point now
   and then, so the strict [>] of the energy-rate trigger is exercised
   at equality. *)
let prop_compile_window_agrees =
  let open QCheck.Gen in
  let level = oneofl Hier.Level.[ Rtl; L1; L2; L3 ] in
  let power = oneof [ float_range 0.0 16.0; oneofl [ 0.0; 4.0; 8.0 ] ] in
  let range bound =
    let* lo = int_bound bound in
    let* len = int_bound bound in
    return (lo, lo + len)
  in
  let trigger =
    oneof
      [
        (let* lo, hi = range 0x3000 and* level = level in
         return (Hier.Policy.Addr_range { lo; hi; level }));
        (let* lo, hi = range 64 and* level = level in
         return (Hier.Policy.Txn_window { lo; hi; level }));
        (let* period = int_range 1 32 and* level = level in
         let* length = int_bound period in
         return (Hier.Policy.Every { period; length; level }));
        (let* pj_per_cycle = power and* level = level in
         return (Hier.Policy.Energy_rate_above { pj_per_cycle; level }));
      ]
  in
  let policy =
    frequency
      [
        (1, map Hier.Policy.constant level);
        (1, return (Hier.Policy.for_exploration ()));
        ( 4,
          let* base = level
          and* triggers = list_size (int_bound 5) trigger
          and* min_window = int_range 1 64
          and* slack = opt (int_bound 64) in
          let max_window = Option.map (( + ) min_window) slack in
          return (Hier.Policy.triggered ~min_window ?max_window ~base triggers)
        );
      ]
  in
  let observations =
    list_size (int_range 1 24) (pair (int_bound 200) (int_bound 0x5000))
  in
  let print (policy, pj_per_cycle, _) =
    Printf.sprintf "%s [%s] pj_per_cycle=%g" (Hier.Policy.to_string policy)
      (String.concat "; "
         (List.map
            (function
              | Hier.Policy.Addr_range { lo; hi; level } ->
                Printf.sprintf "addr %#x..%#x %s" lo hi
                  (Hier.Level.to_string level)
              | Hier.Policy.Txn_window { lo; hi; level } ->
                Printf.sprintf "txn %d..%d %s" lo hi
                  (Hier.Level.to_string level)
              | Hier.Policy.Every { period; length; level } ->
                Printf.sprintf "every %d/%d %s" length period
                  (Hier.Level.to_string level)
              | Hier.Policy.Energy_rate_above { pj_per_cycle; level } ->
                Printf.sprintf "pj>%g %s" pj_per_cycle
                  (Hier.Level.to_string level))
            policy.Hier.Policy.triggers))
      pj_per_cycle
  in
  QCheck.Test.make ~name:"compile_window agrees with decide" ~count:300
    (QCheck.make ~print (triple policy power observations))
    (fun (policy, pj_per_cycle, observations) ->
      let fast = Hier.Policy.compile_window policy ~pj_per_cycle in
      List.for_all
        (fun (txn_index, addr) ->
          fast ~txn_index ~addr
          = Hier.Policy.decide policy
              { Hier.Policy.txn_index; addr; pj_per_cycle })
        observations)

(* The adaptive cache study: same knee, rows carry provenance, and the
   captured post-cache traffic means fewer bus transactions as the cache
   grows. *)
let test_cache_study_adaptive () =
  let program = Soc.Asm.assemble (Core.Test_programs.bubble_sort ~n:6) in
  let sizes = [ None; Some 4 ] in
  let study =
    Core.Cache_study.run
      ~policy:(Hier.Policy.constant Hier.Level.L1)
      ~sizes ~name:"sort" program
  in
  Alcotest.(check int) "rows" 2 (List.length study.Core.Cache_study.rows);
  List.iter
    (fun (r : Core.Cache_study.row) ->
      Alcotest.(check bool) "provenance" true (r.Core.Cache_study.splice <> None);
      Alcotest.(check bool) "positive bus energy" true (r.Core.Cache_study.bus_pj > 0.0))
    study.Core.Cache_study.rows;
  match study.Core.Cache_study.rows with
  | [ nocache; cached ] ->
    Alcotest.(check bool)
      "cache cuts bus energy" true
      (cached.Core.Cache_study.bus_pj < nocache.Core.Cache_study.bus_pj);
    Alcotest.(check bool)
      "cache hits recorded" true
      (cached.Core.Cache_study.hit_rate_pct > 0.0)
  | _ -> Alcotest.fail "unexpected row count"

(* The warm grid at every level, the gate level and layer 3 included:
   every applet x standard configuration cell runs the JCVM correctly
   and, pooled, equals the unpooled cell, bit for bit.  The first pass interprets each cell once
   and memoizes its row; the second pass is one memo hit per cell. *)
let test_pooled_cell_every_level () =
  let pool = Core.Pool.create () in
  let cells =
    List.concat_map
      (fun level ->
        List.concat_map
          (fun applet ->
            List.map
              (fun config ->
                ( level,
                  applet,
                  config,
                  Core.Exploration.run_one ~level ~config applet ))
              Jcvm.Configs.standard)
          Jcvm.Applets.all)
      Core.Level.[ Rtl; L1; L2; L3 ]
  in
  let pass n =
    List.iter
      (fun (level, applet, config, (fresh : Core.Exploration.row)) ->
        let pooled = Core.Exploration.run_one ~level ~pool ~config applet in
        let name =
          Printf.sprintf "pass %d %s %s/%s" n (Core.Level.to_string level)
            applet.Jcvm.Applets.name config.Jcvm.Configs.name
        in
        Alcotest.(check bool) (name ^ " correct") true
          pooled.Core.Exploration.correct;
        Alcotest.(check int64)
          (name ^ " bus energy bits")
          (Int64.bits_of_float fresh.Core.Exploration.bus_pj)
          (Int64.bits_of_float pooled.Core.Exploration.bus_pj);
        Alcotest.(check bool)
          (name ^ " row") true
          ({ fresh with bus_pj = 0.0 } = { pooled with bus_pj = 0.0 }))
      cells
  in
  let n = List.length cells in
  pass 1;
  Alcotest.(check int) "cold pass: one build per cell" n
    (Core.Pool.memo_builds pool);
  Alcotest.(check int) "cold pass: no hit" 0 (Core.Pool.memo_hits pool);
  pass 2;
  Alcotest.(check int) "warm pass: no build" n (Core.Pool.memo_builds pool);
  Alcotest.(check int) "warm pass: one hit per cell" n
    (Core.Pool.memo_hits pool)

(* The one rule for the execution path (DESIGN.md section 14): a sweep
   memoizes a cell's answer at every level, one build per cell, and
   interprets a cell with a sink or under a policy (an adaptive cell on
   a pooled session, sink or not). *)
let test_plan_path_rule () =
  let config = config () in
  let tag_builds tag pool =
    List.fold_left
      (fun acc (t, _hits, builds) -> if t = tag then acc + builds else acc)
      0
      (Core.Pool.memo_tag_stats pool)
  in
  let explore_builds ?level ?policy ?sink () =
    let pool = Core.Pool.create () in
    ignore (Core.Exploration.run_one ?level ?policy ?sink ~pool ~config fib);
    tag_builds "explore" pool
  in
  List.iter
    (fun level ->
      Alcotest.(check int)
        (Core.Level.to_string level ^ " explore memo builds")
        1 (explore_builds ~level ()))
    Core.Level.[ Rtl; L1; L2; L3 ];
  Alcotest.(check int)
    "explore memo builds with a sink" 0
    (explore_builds ~level:Core.Level.L1 ~sink:(Obs.Sink.create ()) ());
  Alcotest.(check int)
    "explore memo builds under a policy" 0
    (explore_builds ~policy:(Hier.Policy.constant Hier.Level.L1) ());
  (* A sink is a run input: a traced adaptive cell reuses its session,
     and the reused session records what the fresh one did. *)
  let pool = Core.Pool.create () in
  let traced () =
    let sink = Obs.Sink.create () in
    let row =
      Core.Exploration.run_one ~policy:(Hier.Policy.for_exploration ()) ~sink
        ~pool ~config fib
    in
    (row.Core.Exploration.cycles, row.Core.Exploration.bus_pj,
     Obs.Sink.length sink)
  in
  let first = traced () in
  Alcotest.(check bool) "traced adaptive cell, reused = fresh" true
    (traced () = first);
  Alcotest.(check int) "traced adaptive cells share a session" 1
    (Core.Pool.hits pool);
  let pool = Core.Pool.create () in
  let cells =
    Core.Contention.study ~n:48 ~levels:Core.Level.[ Rtl; L1 ] ~compiled:true
      ~pool ~domains:1 ()
  in
  Alcotest.(check int) "rtl and l1 cells" 12 (List.length cells);
  Alcotest.(check int)
    "fabric memo builds: one per cell" 12 (tag_builds "fabric" pool)

(* The exploration comparison on one applet: the adaptive rows match
   layer 1, the warm compiled sweep reproduces the cold one, and every
   spliced row is within its budget. *)
let test_exploration_comparison () =
  let c = Core.Experiments.run_exploration_comparison ~applets:[ fib ] () in
  Alcotest.(check bool) "bit_exact" true c.Core.Experiments.bit_exact;
  Alcotest.(check bool) "compiled_exact" true c.Core.Experiments.compiled_exact;
  Alcotest.(check bool) "within_budget" true c.Core.Experiments.within_budget;
  Alcotest.(check bool) "renders" true
    (String.length (Core.Experiments.render_exploration_comparison c) > 0)

let suite =
  [
    Alcotest.test_case "constant policy row = fixed-level row" `Quick
      test_constant_policy_bit_exact;
    Alcotest.test_case "adaptive sweep: bit-exact + within budget" `Quick
      test_adaptive_sweep_acceptance;
    Alcotest.test_case "provenance sums to the row" `Quick test_provenance_sums;
    Alcotest.test_case "~level and ~policy are exclusive" `Quick
      test_level_policy_exclusive;
    Alcotest.test_case "renderer marks best and wrong rows" `Quick
      test_render_marks;
    QCheck_alcotest.to_alcotest prop_compile_window_agrees;
    Alcotest.test_case "cache study over the adaptive route" `Quick
      test_cache_study_adaptive;
    Alcotest.test_case "pooled cell = fresh cell at every level" `Quick
      test_pooled_cell_every_level;
    Alcotest.test_case "exploration comparison (one applet)" `Quick
      test_exploration_comparison;
    Alcotest.test_case "sweeps take the plan path at every level" `Quick
      test_plan_path_rule;
  ]
