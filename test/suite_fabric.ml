(* Multi-master fabric: arbitration policies, per-master energy
   attribution and bridged topologies. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_pj msg a b =
  Alcotest.check (Alcotest.float 0.0) msg a b (* exact float equality *)

(* --- arbiter --- *)

let test_fixed_priority () =
  let a = Ec.Arbiter.create ~masters:3 ~policy:Ec.Arbiter.Fixed_priority in
  check_bool "first attempt wins" true (Ec.Arbiter.attempt a 2);
  Ec.Arbiter.commit a 2;
  check_bool "one grant per cycle" false (Ec.Arbiter.attempt a 0);
  check_bool "loser recorded waiting" true (Ec.Arbiter.waiting a 0);
  Ec.Arbiter.new_cycle a;
  (* Master 0 outranks the repeat attempt from 2 under fixed priority. *)
  check_bool "low index outranks" false (Ec.Arbiter.attempt a 2);
  check_bool "winner" true (Ec.Arbiter.attempt a 0);
  Ec.Arbiter.commit a 0;
  check_int "grants counted" 1 (Ec.Arbiter.grants a 2)

let test_round_robin_rotates () =
  let a = Ec.Arbiter.create ~masters:2 ~policy:Ec.Arbiter.Round_robin in
  (* Both contend every cycle: grants must alternate. *)
  let winners = ref [] in
  for _ = 1 to 6 do
    let w =
      if Ec.Arbiter.attempt a 0 then 0
      else begin
        check_bool "someone wins" true (Ec.Arbiter.attempt a 1);
        1
      end
    in
    Ec.Arbiter.commit a w;
    ignore (Ec.Arbiter.attempt a 0);
    ignore (Ec.Arbiter.attempt a 1);
    winners := w :: !winners;
    Ec.Arbiter.new_cycle a
  done;
  Alcotest.(check (list int)) "alternating" [ 0; 1; 0; 1; 0; 1 ]
    (List.rev !winners);
  check_int "fair split" (Ec.Arbiter.grants a 0) (Ec.Arbiter.grants a 1)

let test_weighted_bursts () =
  let a =
    Ec.Arbiter.create ~masters:2 ~policy:(Ec.Arbiter.Weighted [| 2; 1 |])
  in
  let winners = ref [] in
  for _ = 1 to 6 do
    let w =
      if Ec.Arbiter.attempt a 0 then 0
      else begin
        check_bool "someone wins" true (Ec.Arbiter.attempt a 1);
        1
      end
    in
    Ec.Arbiter.commit a w;
    ignore (Ec.Arbiter.attempt a 0);
    ignore (Ec.Arbiter.attempt a 1);
    winners := w :: !winners;
    Ec.Arbiter.new_cycle a
  done;
  Alcotest.(check (list int)) "2:1 bursts" [ 0; 0; 1; 0; 0; 1 ]
    (List.rev !winners)

let test_refusal_keeps_pointer () =
  let a = Ec.Arbiter.create ~masters:2 ~policy:Ec.Arbiter.Round_robin in
  check_bool "granted" true (Ec.Arbiter.attempt a 0);
  (* The bus refused: the grant must not count or rotate the pointer. *)
  Ec.Arbiter.note_refused a 0;
  Ec.Arbiter.new_cycle a;
  check_bool "retry wins again" true (Ec.Arbiter.attempt a 0);
  Ec.Arbiter.commit a 0;
  check_int "only committed grants count" 1 (Ec.Arbiter.total_grants a)

let test_policy_strings () =
  List.iter
    (fun p ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Ec.Arbiter.policy_to_string p))
        (Option.map Ec.Arbiter.policy_to_string
           (Ec.Arbiter.policy_of_string (Ec.Arbiter.policy_to_string p))))
    [
      Ec.Arbiter.Fixed_priority;
      Ec.Arbiter.Round_robin;
      Ec.Arbiter.Weighted [| 4; 2; 1 |];
    ];
  Alcotest.(check (option string)) "unknown" None
    (Option.map Ec.Arbiter.policy_to_string
       (Ec.Arbiter.policy_of_string "lottery"))

let test_arbiter_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "zero masters" true
    (raises (fun () ->
         Ec.Arbiter.create ~masters:0 ~policy:Ec.Arbiter.Round_robin));
  check_bool "weight length" true
    (raises (fun () ->
         Ec.Arbiter.create ~masters:3
           ~policy:(Ec.Arbiter.Weighted [| 1; 2 |])));
  check_bool "zero weight" true
    (raises (fun () ->
         Ec.Arbiter.create ~masters:2 ~policy:(Ec.Arbiter.Weighted [| 1; 0 |])))

(* --- degenerate single master: fabric == plain bus --- *)

(* A one-master fabric over the system's meter, mirroring the wiring of
   [Core.Contention.run], but keeping the meter in reach so the
   attribution bucket can be compared against it bit for bit. *)
let run_one_master level trace =
  let system = Core.System.create ~level () in
  let kernel = Core.System.kernel system in
  let meter = Option.get (Core.System.meter system) in
  let tap =
    {
      Ec.Fabric.cycles = (fun () -> Power.Meter.cycles meter);
      last_cycle_pj = (fun () -> Power.Meter.last_cycle_pj meter);
    }
  in
  let fabric =
    Ec.Fabric.create ~masters:1 ~policy:Ec.Arbiter.Round_robin
      ~bus:(Core.System.port system) ~tap ()
  in
  Sim.Kernel.on_rising kernel ~name:"fabric" (fun _ ->
      Ec.Fabric.on_rising fabric);
  Sim.Kernel.on_falling kernel ~name:"fabric" (fun _ ->
      Ec.Fabric.on_falling fabric);
  let tm =
    Soc.Trace_master.create ~kernel ~port:(Ec.Fabric.port fabric 0)
      ~mode:`Serial trace
  in
  let cycles = Soc.Trace_master.run tm ~kernel () in
  (fabric, meter, cycles)

let test_degenerate_bit_exact () =
  let trace = Core.Workloads.table3_trace ~n:96 in
  List.iter
    (fun level ->
      let fabric, meter, cycles = run_one_master level trace in
      let direct = Core.Runner.run_trace ~level ~mode:`Serial trace in
      check_int
        (Core.Level.to_string level ^ " cycles")
        direct.Core.Runner.cycles cycles;
      check_int
        (Core.Level.to_string level ^ " txns")
        direct.Core.Runner.txns
        (Ec.Fabric.master_txns fabric 0);
      (* The bucket replays the meter's own per-cycle commits in order,
         so it equals the meter total exactly — even at the gate level,
         where [Diesel.total_pj] itself associates differently. *)
      check_pj
        (Core.Level.to_string level ^ " bucket = meter")
        (Power.Meter.total_pj meter)
        (Ec.Fabric.master_pj fabric 0);
      if level <> Core.Level.Rtl then
        check_pj
          (Core.Level.to_string level ^ " bucket = direct bus_pj")
          direct.Core.Runner.bus_pj
          (Ec.Fabric.master_pj fabric 0);
      (* The same through [Contention.run]: at the gate level the two
         totals associate the same increments differently, so they agree
         only to rounding; the transaction levels agree exactly. *)
      let via =
        Core.Contention.run ~level ~mode:`Serial
          [ (Core.Contention.Cpu, trace) ]
      in
      let row = List.hd via.Core.Contention.rows in
      let name = Core.Level.to_string level ^ " Contention.run" in
      check_int (name ^ " cycles") direct.Core.Runner.cycles
        via.Core.Contention.cycles;
      check_int (name ^ " txns") direct.Core.Runner.txns row.Core.Contention.txns;
      let a = direct.Core.Runner.bus_pj and b = row.Core.Contention.energy_pj in
      if level = Core.Level.Rtl then
        Alcotest.(check (float (1e-9 *. Float.abs a))) (name ^ " energy") a b
      else check_pj (name ^ " energy") a b)
    Core.Level.timed

(* Read data must come back through the fabric's remapped transactions. *)
let test_read_data_roundtrip () =
  let system = Core.System.create ~level:Core.Level.L1 () in
  let kernel = Core.System.kernel system in
  let fabric =
    Ec.Fabric.create ~masters:1 ~policy:Ec.Arbiter.Fixed_priority
      ~bus:(Core.System.port system) ()
  in
  Sim.Kernel.on_rising kernel ~name:"fabric" (fun _ ->
      Ec.Fabric.on_rising fabric);
  Sim.Kernel.on_falling kernel ~name:"fabric" (fun _ ->
      Ec.Fabric.on_falling fabric);
  let ram = Soc.Platform.Map.ram_base in
  let trace =
    [
      Ec.Trace.item
        (Ec.Txn.burst_write ~id:0 ram
           ~values:[| 0xAA; 0xBB; 0xCC; 0xDD |]);
      Ec.Trace.item (Ec.Txn.burst_read ~id:0 ram);
      Ec.Trace.item (Ec.Txn.single_read ~id:0 (ram + 8));
    ]
  in
  let tm =
    Soc.Trace_master.create ~kernel ~port:(Ec.Fabric.port fabric 0)
      ~mode:`Serial ~keep_results:true trace
  in
  ignore (Soc.Trace_master.run tm ~kernel ());
  match
    List.filter
      (fun t -> t.Ec.Txn.dir = Ec.Txn.Read)
      (Soc.Trace_master.results tm)
  with
  | [ burst; single ] ->
    Alcotest.(check (array int))
      "burst data" [| 0xAA; 0xBB; 0xCC; 0xDD |] burst.Ec.Txn.data;
    check_int "single data" 0xCC single.Ec.Txn.data.(0)
  | _ -> Alcotest.fail "expected two completed reads"

(* --- contention and conservation --- *)

let test_conservation_all_levels () =
  List.iter
    (fun level ->
      List.iter
        (fun topology ->
          let r =
            Core.Contention.run ~level ~topology
              (Core.Contention.default_masters ~n:96 topology)
          in
          let sum =
            List.fold_left
              (fun acc (row : Core.Contention.master_row) ->
                acc +. row.Core.Contention.energy_pj)
              0.0 r.Core.Contention.rows
          in
          check_pj
            (Printf.sprintf "%s/%s buckets sum to total"
               (Core.Level.to_string level)
               (Core.Contention.topology_to_string topology))
            r.Core.Contention.fabric_pj sum;
          List.iter
            (fun (row : Core.Contention.master_row) ->
              check_int
                (Core.Contention.kind_to_string row.Core.Contention.kind
                ^ " error-free")
                0 row.Core.Contention.errors)
            r.Core.Contention.rows)
        [ Core.Contention.Single; Core.Contention.Bridged ])
    Core.Level.timed

let test_bridge_routing () =
  let far_base = fst Core.Contention.far_window in
  (* 16 words as 4-beat bursts: the read half crosses, the writes stay. *)
  let masters =
    [ (Core.Contention.Dma, Core.Workloads.dma_trace ~words:16 ~src:far_base ()) ]
  in
  let r =
    Core.Contention.run ~level:Core.Level.L1 ~topology:Core.Contention.Bridged
      masters
  in
  check_int "four crossings" 4 r.Core.Contention.crossings;
  check_pj "crossing energy per beat" (1.5 *. 16.0) r.Core.Contention.bridge_pj;
  let row = List.hd r.Core.Contention.rows in
  check_int "all txns complete" 8 row.Core.Contention.txns;
  check_int "no errors" 0 row.Core.Contention.errors;
  (* Same traffic on a single bus (far window unmapped there would
     error, so source from FLASH): nothing crosses. *)
  let single =
    Core.Contention.run ~level:Core.Level.L1
      [ (Core.Contention.Dma, Core.Workloads.dma_trace ~words:16 ()) ]
  in
  check_int "single topology never crosses" 0 single.Core.Contention.crossings;
  check_pj "no bridge energy" 0.0 single.Core.Contention.bridge_pj

let test_contention_rejects_l3 () =
  let masters = [ (Core.Contention.Cpu, Core.Workloads.table3_trace ~n:4) ] in
  Alcotest.check_raises "L3 has nothing to arbitrate"
    (Invalid_argument
       "Core.Contention.run: fabric masters drive timed buses (rtl/l1/l2)")
    (fun () -> ignore (Core.Contention.run ~level:Core.Level.L3 masters));
  Alcotest.check_raises "compile names itself"
    (Invalid_argument
       "Core.Contention.compile: fabric masters drive timed buses (rtl/l1/l2)")
    (fun () -> ignore (Core.Contention.compile ~level:Core.Level.L3 masters))

(* --- compiled fabric plans (DESIGN.md section 18) --- *)

let check_result_bit_exact msg (a : Core.Contention.result)
    (b : Core.Contention.result) =
  check_int (msg ^ " cycles") a.Core.Contention.cycles b.Core.Contention.cycles;
  check_int (msg ^ " crossings") a.Core.Contention.crossings
    b.Core.Contention.crossings;
  check_pj (msg ^ " fabric total") a.Core.Contention.fabric_pj
    b.Core.Contention.fabric_pj;
  check_pj (msg ^ " bus total") a.Core.Contention.bus_pj
    b.Core.Contention.bus_pj;
  check_pj (msg ^ " bridge") a.Core.Contention.bridge_pj
    b.Core.Contention.bridge_pj;
  List.iter2
    (fun (x : Core.Contention.master_row) (y : Core.Contention.master_row) ->
      let who = msg ^ " " ^ Core.Contention.kind_to_string x.Core.Contention.kind in
      check_int (who ^ " txns") x.Core.Contention.txns y.Core.Contention.txns;
      check_int (who ^ " beats") x.Core.Contention.beats y.Core.Contention.beats;
      check_int (who ^ " grants") x.Core.Contention.grants
        y.Core.Contention.grants;
      check_pj (who ^ " bucket") x.Core.Contention.energy_pj
        y.Core.Contention.energy_pj)
    a.Core.Contention.rows b.Core.Contention.rows

(* The compiled path of one contention cell: capture, then fold the
   plan at the default table and shape the outcome and the plan's meta
   as a result, rows in master order. *)
let compiled_run ?pool ~level ~policy ~topology masters =
  let plan = Core.Contention.compile ~level ~policy ~topology ?pool masters in
  let o =
    List.hd
      (Compile.Eval.eval_fabric_multi plan
         ~points:
           [ { Compile.Eval.table = Power.Characterization.default;
               l2_params = None } ])
  in
  let m = plan.Compile.Plan.f_meta in
  {
    Core.Contention.level;
    policy;
    topology;
    cycles = m.Compile.Plan.f_cycles;
    fabric_pj = o.Compile.Eval.fabric_pj;
    bus_pj = o.Compile.Eval.near_bus_pj +. o.Compile.Eval.far_bus_pj;
    bridge_pj = o.Compile.Eval.fabric_bridge_pj;
    crossings = m.Compile.Plan.f_crossings;
    rows =
      List.mapi
        (fun i (kind, _) ->
          {
            Core.Contention.kind;
            txns = m.Compile.Plan.f_txns.(i);
            beats = m.Compile.Plan.f_beats.(i);
            errors = m.Compile.Plan.f_errors.(i);
            grants = m.Compile.Plan.f_grants.(i);
            energy_pj = o.Compile.Eval.buckets.(i);
          })
        masters;
    wall_seconds = 0.0;
  }

(* The whole compilable grid: compiled replay must be bit-identical to
   the interpreted fabric, buckets included, at every policy x topology
   x timed level, the gate level included — fresh and off pooled,
   memoized plans. *)
let test_compiled_grid_bit_exact () =
  let pool = Core.Pool.create () in
  List.iter
    (fun level ->
      List.iter
        (fun policy ->
          List.iter
            (fun topology ->
              let masters = Core.Contention.default_masters ~n:48 topology in
              let interp =
                Core.Contention.run ~level ~policy ~topology masters
              in
              let comp = compiled_run ~level ~policy ~topology masters in
              let cell =
                Printf.sprintf "%s/%s/%s" (Core.Level.to_string level)
                  (Ec.Arbiter.policy_to_string policy)
                  (Core.Contention.topology_to_string topology)
              in
              check_result_bit_exact cell interp comp;
              for _ = 1 to 2 do
                check_result_bit_exact (cell ^ " pooled") interp
                  (compiled_run ~pool ~level ~policy ~topology masters)
              done)
            [ Core.Contention.Single; Core.Contention.Bridged ])
        [
          Ec.Arbiter.Fixed_priority;
          Ec.Arbiter.Round_robin;
          Ec.Arbiter.Weighted [| 4; 2; 1 |];
        ])
    [ Core.Level.Rtl; Core.Level.L1; Core.Level.L2 ];
  (* One capture per cell, then memo hits; an rtl and an L1 cell share
     one capture, so the 6 L1 cells hit the rtl cells' plans. *)
  check_int "plans built" 12 (Core.Pool.memo_builds pool);
  check_int "plan hits" 24 (Core.Pool.memo_hits pool);
  (* The study sweep: its pooled compiled grid, cold and then warm off
     the memoized results, equals the interpreted grid cell for cell.
     Each sweep spawns its own workers, so on two domains the warm pass
     finds results that other domains built. *)
  let levels = [ Core.Level.L1; Core.Level.L2 ] in
  let interp = Core.Contention.study ~n:48 ~levels ~domains:1 () in
  List.iter
    (fun domains ->
      let study_pool = Core.Pool.create () in
      let pass n =
        List.iter2
          (check_result_bit_exact
             (Printf.sprintf "study pass %d on %d domains" n domains))
          interp
          (Core.Contention.study ~n:48 ~levels ~compiled:true
             ~pool:study_pool ~domains ())
      in
      pass 1;
      let built = Core.Pool.memo_builds study_pool in
      pass 2;
      check_int
        (Printf.sprintf "warm pass on %d domains builds nothing" domains)
        built
        (Core.Pool.memo_builds study_pool))
    [ 1; 2 ]

(* The gate-level study: its pooled compiled rtl cells, cold and then
   warm off the memoized results, equal the interpreted grid — buckets,
   bus_pj and bridge_pj, single and bridged, every policy.  The rtl
   fabric fold itself is checked in the grid test above. *)
let test_rtl_study_compiled () =
  let levels = [ Core.Level.Rtl ] in
  let interp = Core.Contention.study ~n:48 ~levels ~domains:1 () in
  check_int "rtl cells" 6 (List.length interp);
  let pool = Core.Pool.create () in
  for pass = 1 to 2 do
    List.iter2
      (check_result_bit_exact (Printf.sprintf "rtl study pass %d" pass))
      interp
      (Core.Contention.study ~n:48 ~levels ~compiled:true ~pool ~domains:1 ())
  done

(* The gate level and layer 1 record the same wire bodies: a pooled
   compile at rtl and then at L1 builds one fabric plan, each call gets
   it back at its own level, and each folds to its interpreted run bit
   for bit, single and bridged. *)
let test_rtl_l1_share_fabric_plan () =
  let pool = Core.Pool.create () in
  let policy = Ec.Arbiter.Round_robin in
  List.iter
    (fun topology ->
      let masters = Core.Contention.default_masters ~n:48 topology in
      let built = Core.Pool.memo_builds pool in
      List.iter
        (fun level ->
          let cell =
            Core.Level.to_string level ^ "/"
            ^ Core.Contention.topology_to_string topology
          in
          let plan =
            Core.Contention.compile ~level ~policy ~topology ~pool masters
          in
          List.iter
            (fun (p : Compile.Plan.t) ->
              check_bool (cell ^ " plan level") true
                (p.Compile.Plan.meta.Compile.Plan.level = level))
            (plan.Compile.Plan.near
            :: Option.to_list plan.Compile.Plan.far_plan);
          check_result_bit_exact cell
            (Core.Contention.run ~level ~policy ~topology masters)
            (compiled_run ~pool ~level ~policy ~topology masters))
        [ Core.Level.Rtl; Core.Level.L1 ];
      check_int
        (Core.Contention.topology_to_string topology ^ " one fabric plan")
        (built + 1) (Core.Pool.memo_builds pool))
    [ Core.Contention.Single; Core.Contention.Bridged ];
  check_bool "fabric tag: 2 builds, 6 hits" true
    (Core.Pool.memo_tag_stats pool = [ ("fabric", 6, 2) ])

(* Multi-point evaluation must equal N single-point evaluations. *)
let test_fabric_multipoint () =
  let masters =
    Core.Contention.default_masters ~n:48 Core.Contention.Bridged
  in
  List.iter
    (fun level ->
      let plan =
        Core.Contention.compile ~level ~topology:Core.Contention.Bridged
          masters
      in
      let points =
        List.map
          (fun s ->
            {
              Compile.Eval.table =
                Power.Characterization.scale Power.Characterization.default s;
              l2_params = None;
            })
          [ 0.5; 1.0; 2.0 ]
      in
      let multi = Compile.Eval.eval_fabric_multi plan ~points in
      List.iter2
        (fun (pt : Compile.Eval.point) (o : Compile.Eval.fabric_outcome) ->
          let single =
            List.hd (Compile.Eval.eval_fabric_multi plan ~points:[ pt ])
          in
          check_pj "multi total = single" single.Compile.Eval.fabric_pj
            o.Compile.Eval.fabric_pj;
          check_pj "multi bridge = single" single.Compile.Eval.fabric_bridge_pj
            o.Compile.Eval.fabric_bridge_pj;
          check_pj "multi near = single" single.Compile.Eval.near_bus_pj
            o.Compile.Eval.near_bus_pj;
          check_pj "multi far = single" single.Compile.Eval.far_bus_pj
            o.Compile.Eval.far_bus_pj;
          Array.iteri
            (fun m b ->
              check_pj
                (Printf.sprintf "multi bucket %d = single" m)
                single.Compile.Eval.buckets.(m) b)
            o.Compile.Eval.buckets)
        points multi)
    [ Core.Level.L1; Core.Level.L2 ]

(* A pooled fabric session, reset and re-armed, replays bit-identically
   to a fresh build — including the bridged far RAM, whose store reset
   is part of the session protocol. *)
let test_pooled_fabric_session () =
  let pool = Core.Pool.create () in
  List.iter
    (fun topology ->
      let masters = Core.Contention.default_masters ~n:48 topology in
      let fresh = Core.Contention.run ~level:Core.Level.L1 ~topology masters in
      let first =
        Core.Contention.run ~level:Core.Level.L1 ~topology ~pool masters
      in
      let reused =
        Core.Contention.run ~level:Core.Level.L1 ~topology ~pool masters
      in
      let msg =
        "pooled/" ^ Core.Contention.topology_to_string topology
      in
      check_result_bit_exact (msg ^ " first") fresh first;
      check_result_bit_exact (msg ^ " reused") fresh reused)
    [ Core.Contention.Single; Core.Contention.Bridged ]

(* Degenerate single-master fabric plan: the near body is exactly the
   trace plan's body — same integer residue, same energies.  The bucket
   sums the meter per cycle; at the gate level Diesel's total sums the
   interface and internal energies apart, so there the bucket equals the
   trace plan's profile summed in cycle order, and the two totals agree
   only to rounding. *)
let test_degenerate_plan_equals_trace_plan () =
  let trace = Core.Workloads.table3_trace ~n:64 in
  List.iter
    (fun level ->
      let fplan =
        Core.Contention.compile ~level ~mode:`Serial
          [ (Core.Contention.Cpu, trace) ]
      in
      let tplan = Core.Runner.compile_trace ~level ~mode:`Serial trace in
      let near = fplan.Compile.Plan.near in
      check_bool
        (Core.Level.to_string level ^ " bodies equal")
        true
        (near.Compile.Plan.body = tplan.Compile.Plan.body);
      let nm = near.Compile.Plan.meta and tm = tplan.Compile.Plan.meta in
      check_int
        (Core.Level.to_string level ^ " txns")
        tm.Compile.Plan.txns nm.Compile.Plan.txns;
      check_int
        (Core.Level.to_string level ^ " beats")
        tm.Compile.Plan.beats nm.Compile.Plan.beats;
      let points =
        [ { Compile.Eval.table = Power.Characterization.default;
            l2_params = None } ]
      in
      let fo = List.hd (Compile.Eval.eval_fabric_multi fplan ~points) in
      let to_ =
        List.hd (Compile.Eval.eval_multi ~record_profile:true tplan ~points)
      in
      let metered =
        match level with
        | Core.Level.Rtl ->
          Array.fold_left ( +. ) 0.0
            (Power.Profile.to_array (Option.get to_.Compile.Eval.profile))
        | _ -> to_.Compile.Eval.bus_pj
      in
      check_pj
        (Core.Level.to_string level ^ " bucket = trace plan energy")
        metered fo.Compile.Eval.buckets.(0);
      check_pj
        (Core.Level.to_string level ^ " near total = trace plan energy")
        to_.Compile.Eval.bus_pj fo.Compile.Eval.near_bus_pj)
    [ Core.Level.Rtl; Core.Level.L1; Core.Level.L2 ]

(* --- qcheck properties --- *)

module Gen = QCheck.Gen

let gen_policy n =
  Gen.oneofl
    [
      Ec.Arbiter.Fixed_priority;
      Ec.Arbiter.Round_robin;
      Ec.Arbiter.Weighted (Array.init n (fun i -> 1 + ((i * 3) mod 4)));
    ]

let gen_level = Gen.oneofl Core.Level.timed

let prop_no_starvation =
  QCheck.Test.make ~name:"round-robin starves no master" ~count:20
    QCheck.(make Gen.(pair (int_range 1 3) (int_bound 1000)))
    (fun (masters, seed) ->
      let rng = Sim.Rng.create ~seed in
      let traces =
        List.init masters (fun i ->
            ( (match i with
              | 0 -> Core.Contention.Cpu
              | 1 -> Core.Contention.Dma
              | _ -> Core.Contention.Crypto),
              Core.Workloads.random_trace ~rng ~n:(16 + (8 * i)) () ))
      in
      let r =
        Core.Contention.run ~level:Core.Level.L1
          ~policy:Ec.Arbiter.Round_robin traces
      in
      List.for_all2
        (fun (_, trace) (row : Core.Contention.master_row) ->
          row.Core.Contention.txns = Ec.Trace.total_txns trace
          && row.Core.Contention.grants >= Ec.Trace.total_txns trace)
        traces r.Core.Contention.rows)

let prop_conservation =
  QCheck.Test.make ~name:"fabric energy = sum of master buckets" ~count:15
    QCheck.(make Gen.(triple gen_level (gen_policy 3) bool))
    (fun (level, policy, bridged) ->
      let topology =
        if bridged then Core.Contention.Bridged else Core.Contention.Single
      in
      let r =
        Core.Contention.run ~level ~policy ~topology
          (Core.Contention.default_masters ~n:48 topology)
      in
      let sum =
        List.fold_left
          (fun acc (row : Core.Contention.master_row) ->
            acc +. row.Core.Contention.energy_pj)
          0.0 r.Core.Contention.rows
      in
      sum = r.Core.Contention.fabric_pj)

let prop_degenerate =
  QCheck.Test.make ~name:"1-master fabric = plain bus, any level" ~count:12
    QCheck.(make Gen.(pair gen_level (int_bound 1000)))
    (fun (level, seed) ->
      let rng = Sim.Rng.create ~seed in
      let trace = Core.Workloads.random_trace ~rng ~n:40 () in
      let fabric, meter, cycles = run_one_master level trace in
      let direct = Core.Runner.run_trace ~level ~mode:`Serial trace in
      direct.Core.Runner.cycles = cycles
      && direct.Core.Runner.txns = Ec.Fabric.master_txns fabric 0
      && Power.Meter.total_pj meter = Ec.Fabric.master_pj fabric 0)

let prop_compiled_bit_exact =
  QCheck.Test.make ~name:"compiled fabric replay bit-exact (random mix)"
    ~count:10
    QCheck.(
      make
        Gen.(
          quad (oneofl [ Core.Level.L1; Core.Level.L2 ]) (gen_policy 3) bool
            (int_bound 1000)))
    (fun (level, policy, bridged, seed) ->
      let topology =
        if bridged then Core.Contention.Bridged else Core.Contention.Single
      in
      let rng = Sim.Rng.create ~seed in
      let masters =
        (Core.Contention.Cpu, Core.Workloads.random_trace ~rng ~n:32 ())
        :: List.tl (Core.Contention.default_masters ~n:32 topology)
      in
      let interp = Core.Contention.run ~level ~policy ~topology masters in
      let comp = compiled_run ~level ~policy ~topology masters in
      interp.Core.Contention.cycles = comp.Core.Contention.cycles
      && interp.Core.Contention.fabric_pj = comp.Core.Contention.fabric_pj
      && interp.Core.Contention.bridge_pj = comp.Core.Contention.bridge_pj
      && List.for_all2
           (fun (a : Core.Contention.master_row)
                (b : Core.Contention.master_row) ->
             a.Core.Contention.energy_pj = b.Core.Contention.energy_pj
             && a.Core.Contention.grants = b.Core.Contention.grants)
           interp.Core.Contention.rows comp.Core.Contention.rows)

let prop_pooled_session_bit_exact =
  QCheck.Test.make ~name:"pooled fabric session bit-exact after reset"
    ~count:8
    QCheck.(make Gen.(triple (gen_policy 3) bool (int_bound 1000)))
    (fun (policy, bridged, seed) ->
      let topology =
        if bridged then Core.Contention.Bridged else Core.Contention.Single
      in
      let rng = Sim.Rng.create ~seed in
      let masters =
        (Core.Contention.Cpu, Core.Workloads.random_trace ~rng ~n:24 ())
        :: List.tl (Core.Contention.default_masters ~n:24 topology)
      in
      let pool = Core.Pool.create () in
      let fresh =
        Core.Contention.run ~level:Core.Level.L1 ~policy ~topology masters
      in
      let _first =
        Core.Contention.run ~level:Core.Level.L1 ~policy ~topology ~pool
          masters
      in
      let reused =
        Core.Contention.run ~level:Core.Level.L1 ~policy ~topology ~pool
          masters
      in
      fresh.Core.Contention.cycles = reused.Core.Contention.cycles
      && fresh.Core.Contention.fabric_pj = reused.Core.Contention.fabric_pj
      && List.for_all2
           (fun (a : Core.Contention.master_row)
                (b : Core.Contention.master_row) ->
             a.Core.Contention.energy_pj = b.Core.Contention.energy_pj)
           fresh.Core.Contention.rows reused.Core.Contention.rows)

let suite =
  [
    Alcotest.test_case "fixed priority order" `Quick test_fixed_priority;
    Alcotest.test_case "round robin rotates" `Quick test_round_robin_rotates;
    Alcotest.test_case "weighted grant bursts" `Quick test_weighted_bursts;
    Alcotest.test_case "bus refusal keeps pointer" `Quick
      test_refusal_keeps_pointer;
    Alcotest.test_case "policy string roundtrip" `Quick test_policy_strings;
    Alcotest.test_case "arbiter validation" `Quick test_arbiter_validation;
    Alcotest.test_case "degenerate fabric bit-exact" `Quick
      test_degenerate_bit_exact;
    Alcotest.test_case "read data roundtrip" `Quick test_read_data_roundtrip;
    Alcotest.test_case "attribution conserves" `Quick
      test_conservation_all_levels;
    Alcotest.test_case "bridge routing and energy" `Quick test_bridge_routing;
    Alcotest.test_case "contention rejects L3" `Quick test_contention_rejects_l3;
    Alcotest.test_case "compiled grid bit-exact" `Quick
      test_compiled_grid_bit_exact;
    Alcotest.test_case "rtl study: compiled = interpreted" `Quick
      test_rtl_study_compiled;
    Alcotest.test_case "rtl and l1 compile one fabric plan" `Quick
      test_rtl_l1_share_fabric_plan;
    Alcotest.test_case "fabric multi-point = N single points" `Quick
      test_fabric_multipoint;
    Alcotest.test_case "pooled fabric session replays" `Quick
      test_pooled_fabric_session;
    Alcotest.test_case "degenerate fabric plan = trace plan" `Quick
      test_degenerate_plan_equals_trace_plan;
    QCheck_alcotest.to_alcotest prop_no_starvation;
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_degenerate;
    QCheck_alcotest.to_alcotest prop_compiled_bit_exact;
    QCheck_alcotest.to_alcotest prop_pooled_session_bit_exact;
  ]
