(* The adaptive mixed-level engine: policy decisions, energy splicing,
   the shared platform across switches, the quiesce rule, and the
   degenerate-policy equivalences that pin run_adaptive to the pure
   runs. *)

module Gen = QCheck.Gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let obs ?(addr = 0) ?(pj_per_cycle = 0.0) txn_index =
  { Hier.Policy.txn_index; addr; pj_per_cycle }

(* --- policy --- *)

let test_policy_constant () =
  let p = Hier.Policy.constant Hier.Level.L2 in
  List.iter
    (fun i -> check_string "constant" "TL layer 2"
        (Hier.Level.to_string (Hier.Policy.decide p (obs i))))
    [ 0; 1; 1000 ]

let test_policy_schedule () =
  let p =
    Schedule.policy
      [ (3, Hier.Level.L2); (2, Hier.Level.L1); (4, Hier.Level.Rtl) ]
  in
  let at i = Hier.Level.to_string (Hier.Policy.decide p (obs i)) in
  check_string "first segment" "TL layer 2" (at 0);
  check_string "segment edge" "TL layer 2" (at 2);
  check_string "second segment" "TL layer 1" (at 3);
  check_string "last segment" "gate-level" (at 5)

let test_policy_triggered () =
  let p =
    Hier.Policy.triggered ~base:Hier.Level.L2
      [
        Hier.Policy.Addr_range { lo = 0x100; hi = 0x200; level = Hier.Level.L1 };
        Hier.Policy.Energy_rate_above { pj_per_cycle = 5.0; level = Hier.Level.Rtl };
      ]
  in
  let level o = Hier.Level.to_string (Hier.Policy.decide p o) in
  check_string "base" "TL layer 2" (level (obs ~addr:0x300 0));
  check_string "address trigger" "TL layer 1" (level (obs ~addr:0x180 0));
  check_string "rate trigger" "gate-level" (level (obs ~addr:0x300 ~pj_per_cycle:9.0 0));
  (* First matching trigger wins. *)
  check_string "priority" "TL layer 1" (level (obs ~addr:0x180 ~pj_per_cycle:9.0 0));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Hier.Policy.triggered: max_window < min_window")
    (fun () ->
      ignore (Hier.Policy.triggered ~min_window:4 ~max_window:2
                ~base:Hier.Level.L2 []))

(* --- splice --- *)

let seg ?profile level cycles txns bus_pj =
  { Hier.Splice.level; cycles; txns; beats = txns; errors = 0; bus_pj;
    component_pj = 0.0; profile }

let test_splice_totals () =
  let s =
    Hier.Splice.splice
      [
        seg Hier.Level.L2 100 10 50.0;
        seg Hier.Level.L1 40 4 20.0;
        seg Hier.Level.L2 60 6 30.0;
      ]
  in
  check_int "windows" 3 (List.length s.Hier.Splice.windows);
  check_int "switches" 2 s.Hier.Splice.switches;
  check_int "cycles" 200 s.Hier.Splice.total_cycles;
  check_int "txns" 20 s.Hier.Splice.total_txns;
  Alcotest.(check (float 1e-9)) "energy" 100.0 s.Hier.Splice.total_bus_pj;
  (* Budget: L2 windows at 25%, the L1 window at 12%. *)
  Alcotest.(check (float 1e-9)) "bound"
    ((50.0 +. 30.0) *. 0.25 +. 20.0 *. 0.12)
    s.Hier.Splice.error_bound_pj;
  let w = List.nth s.Hier.Splice.windows 1 in
  check_int "start cycle" 100 w.Hier.Splice.start_cycle;
  check_string "provenance" "cycle-accurate"
    (Hier.Splice.provenance_string w.Hier.Splice.provenance);
  let err_pct, within = Hier.Splice.error_vs_reference s ~reference_pj:110.0 in
  check_bool "within budget" true within;
  Alcotest.(check (float 1e-6)) "error pct" (-9.090909) err_pct;
  let _, outside = Hier.Splice.error_vs_reference s ~reference_pj:200.0 in
  check_bool "outside budget" false outside

let test_splice_profile () =
  let recorded = Power.Profile.create () in
  List.iter (Power.Profile.push recorded) [ 1.0; 2.0; 3.0 ];
  let s =
    Hier.Splice.splice
      [ seg ~profile:recorded Hier.Level.L1 4 1 6.0; seg Hier.Level.L2 5 1 10.0 ]
  in
  let p = Hier.Splice.profile s in
  check_int "profile spans the spliced timeline" 9 (Power.Profile.length p);
  (* Recorded cycles verbatim (padded), lump spread uniformly. *)
  Alcotest.(check (float 1e-9)) "recorded cycle" 2.0 (Power.Profile.get p 1);
  Alcotest.(check (float 1e-9)) "padding" 0.0 (Power.Profile.get p 3);
  Alcotest.(check (float 1e-9)) "lump spread" 2.0 (Power.Profile.get p 7);
  Alcotest.(check (float 1e-9)) "profile total = spliced energy" 16.0
    (Power.Profile.total p)

(* --- engine over the real systems --- *)

let small_trace = Core.Workloads.mixed_phase_trace ~phase:32 ~n:256 ()

let run_pure level =
  Core.Runner.run_trace ~level ~init:Core.Runner.fill_memories small_trace

let run_const level =
  Core.Runner.run_adaptive ~init:Core.Runner.fill_memories
    ~policy:(Hier.Policy.constant level) small_trace

let check_run_equal name (pure : Core.Runner.result)
    (adaptive : Core.Runner.adaptive_run) =
  check_int (name ^ " cycles") pure.Core.Runner.cycles adaptive.Core.Runner.cycles;
  check_int (name ^ " txns") pure.Core.Runner.txns adaptive.Core.Runner.txns;
  check_int (name ^ " beats") pure.Core.Runner.beats adaptive.Core.Runner.beats;
  check_int (name ^ " errors") pure.Core.Runner.errors adaptive.Core.Runner.errors;
  (* Bit-for-bit: the degenerate window runs exactly the pure code path. *)
  check_bool (name ^ " bus pj") true
    (pure.Core.Runner.bus_pj = adaptive.Core.Runner.bus_pj);
  check_bool (name ^ " component pj") true
    (pure.Core.Runner.component_pj = adaptive.Core.Runner.component_pj);
  check_int (name ^ " single window") 1
    (List.length adaptive.Core.Runner.splice.Hier.Splice.windows);
  check_int (name ^ " no switches") 0 adaptive.Core.Runner.switches

let test_degenerate_l1 () =
  check_run_equal "l1" (run_pure Core.Level.L1) (run_const Hier.Level.L1)

let test_degenerate_l2 () =
  check_run_equal "l2" (run_pure Core.Level.L2) (run_const Hier.Level.L2)

let test_handoff_carries_memory () =
  (* A value written during the first (layer 1) window is read back by
     every later read, the layer-2 ones included: both front-ends drive
     the one platform, so nothing has to cross the switch. *)
  let addr = Soc.Platform.Map.ram_base + 0x40 in
  let value = 0x5EC0DE in
  let ids = ref 0 in
  let item txn = Ec.Trace.item txn in
  let fresh () = incr ids; !ids in
  let trace =
    item (Ec.Txn.single_write ~id:(fresh ()) addr ~value)
    :: List.init 40 (fun _ ->
           item (Ec.Txn.single_read ~id:(fresh ()) addr))
  in
  let policy = Schedule.policy [ (8, Hier.Level.L1); (8, Hier.Level.L2) ] in
  let live =
    Core.Runner.live_adaptive ~policy (Core.Runner.live_materials ~policy ())
  in
  let master =
    Soc.Trace_master.create ~kernel:live.Core.Runner.kernel
      ~port:live.Core.Runner.port ~mode:`Serial ~keep_results:true trace
  in
  ignore (Soc.Trace_master.run master ~kernel:live.Core.Runner.kernel ());
  let r = live.Core.Runner.finish () in
  check_int "two windows" 2 (List.length r.Core.Runner.splice.Hier.Splice.windows);
  check_int "one switch" 1 r.Core.Runner.switches;
  check_int "no errors" 0 r.Core.Runner.errors;
  let reads = List.tl (Soc.Trace_master.results master) in
  check_int "every read completed" 40 (List.length reads);
  List.iteri
    (fun i txn ->
      check_int
        (Printf.sprintf "read %d (%s) returns the written value" (i + 1)
           (if i + 1 < 8 then "layer 1" else "layer 2"))
        value txn.Ec.Txn.data.(0))
    reads

let test_l3_policy_refused () =
  (* Layer 3 has no bus of its own to switch to: a policy naming it is
     refused before anything is built or run. *)
  let trace = Core.Workloads.table3_trace ~n:32 in
  let inits = ref 0 in
  List.iter
    (fun policy ->
      Alcotest.check_raises (Hier.Policy.to_string policy)
        (Invalid_argument
           "Core.Runner.run_adaptive: adaptive windows drive timed buses \
            (rtl/l1/l2)")
        (fun () ->
          ignore
            (Core.Runner.run_adaptive ~init:(fun _ -> incr inits) ~policy
               trace)))
    [
      Hier.Policy.constant Hier.Level.L3;
      Schedule.policy [ (8, Hier.Level.L2); (8, Hier.Level.L3) ];
    ];
  check_int "no run started" 0 !inits;
  Alcotest.check_raises "no layer-3 windows to splice"
    (Invalid_argument "Hier.Splice.splice: layer 3 opens no windows")
    (fun () -> ignore (Hier.Splice.splice [ seg Hier.Level.L3 10 1 1.0 ]))

let test_adaptive_policy_refines_eeprom () =
  (* The experiment's policy: base L2, L1 while traffic hits the EEPROM.
     The mixed-phase workload has EEPROM phases, so both levels appear. *)
  let trace = Core.Workloads.mixed_phase_trace ~phase:32 ~sensitive_every:4 ~n:256 () in
  let r =
    Core.Runner.run_adaptive ~init:Core.Runner.fill_memories
      ~policy:Core.Experiments.adaptive_policy trace
  in
  let levels =
    List.map (fun w -> w.Hier.Splice.level) r.Core.Runner.splice.Hier.Splice.windows
  in
  check_bool "has L1 windows" true (List.mem Hier.Level.L1 levels);
  check_bool "has L2 windows" true (List.mem Hier.Level.L2 levels);
  check_bool "switches" true (r.Core.Runner.switches > 0);
  check_int "all txns accounted" 256 r.Core.Runner.txns

(* --- properties --- *)

let gen_script =
  let open Gen in
  let gen_level =
    frequency
      [ (4, return Hier.Level.L1); (4, return Hier.Level.L2);
        (1, return Hier.Level.Rtl) ]
  in
  list_size (int_range 1 6)
    (let* n = int_range 1 60 in
     let* level = gen_level in
     return (n, level))

let arb_script = QCheck.make gen_script ~print:Schedule.to_string

let prop_script_splice_sums =
  QCheck.Test.make ~name:"spliced totals = sum of window stats (any script)"
    ~count:12 arb_script (fun script ->
      let trace = Core.Workloads.mixed_phase_trace ~phase:16 ~n:96 () in
      let r =
        Core.Runner.run_adaptive ~init:Core.Runner.fill_memories
          ~policy:(Schedule.policy script) trace
      in
      let s = r.Core.Runner.splice in
      let windows = s.Hier.Splice.windows in
      let sum f = List.fold_left (fun acc w -> acc + f w) 0 windows in
      let sumf f = List.fold_left (fun acc w -> acc +. f w) 0.0 windows in
      sum (fun w -> w.Hier.Splice.txns) = 96
      && s.Hier.Splice.total_txns = 96
      && s.Hier.Splice.total_cycles = sum (fun w -> w.Hier.Splice.cycles)
      && Float.abs
           (s.Hier.Splice.total_bus_pj -. sumf (fun w -> w.Hier.Splice.bus_pj))
         < 1e-9
      && r.Core.Runner.errors = 0)

let modes = [ `Serial; `Pipelined ]

let mode_name = function `Serial -> "serial" | `Pipelined -> "pipelined"

let profile_bits p =
  Option.map
    (fun p -> Array.map Int64.bits_of_float (Power.Profile.to_array p))
    p

let prop_constant_equals_pure =
  QCheck.Test.make
    ~name:
      "constant policy = pure run (both TL levels and the gate level, either \
       issue mode)"
    ~count:12
    (QCheck.make
       Gen.(
         triple (oneofl Core.Level.timed) (oneofl modes) (int_range 32 160))
       ~print:(fun (l, mode, n) ->
         Printf.sprintf "%s %s n=%d" (Hier.Level.to_string l) (mode_name mode)
           n))
    (fun (level, mode, n) ->
      let trace = Core.Workloads.mixed_phase_trace ~phase:16 ~n () in
      let pure =
        Core.Runner.run_trace ~level ~mode ~record_profile:true
          ~init:Core.Runner.fill_memories trace
      in
      let a =
        Core.Runner.run_adaptive ~mode ~record_profile:true
          ~init:Core.Runner.fill_memories
          ~policy:(Hier.Policy.constant level) trace
      in
      pure.Core.Runner.cycles = a.Core.Runner.cycles
      && pure.Core.Runner.txns = a.Core.Runner.txns
      && pure.Core.Runner.beats = a.Core.Runner.beats
      && pure.Core.Runner.errors = a.Core.Runner.errors
      && Int64.bits_of_float pure.Core.Runner.bus_pj
         = Int64.bits_of_float a.Core.Runner.bus_pj
      && Int64.bits_of_float pure.Core.Runner.component_pj
         = Int64.bits_of_float a.Core.Runner.component_pj
      && profile_bits pure.Core.Runner.profile
         = profile_bits (Some (Hier.Splice.profile a.Core.Runner.splice)))

(* No energy outside a window: whatever the script, every pJ a
   front-end counts lands in one of its level's windows, so the spliced
   total is the front-ends' sum — up to the rounding of the per-window
   differences.  Pipelined issue keeps bursts in flight at every switch
   request, which the quiesce rule must drain first; random gaps (the
   first one included) leave idle cycles, where a gate-level front-end
   that steps outside its windows would count leakage.  The recorded
   profiles add up to the same total. *)
let prop_windows_hold_all_energy =
  QCheck.Test.make
    ~name:"spliced energy = sum of front-end totals (pipelined scripts)"
    ~count:16
    (QCheck.pair arb_script (QCheck.int_bound 1_000_000))
    (fun (script, seed) ->
      let trace =
        Core.Workloads.random_trace ~rng:(Sim.Rng.create ~seed) ~n:96
          ~max_gap:4 ()
      in
      let policy = Schedule.policy script in
      let live =
        Core.Runner.live_adaptive ~policy
          (Core.Runner.live_materials ~record_profile:true ~policy ())
      in
      let master =
        Soc.Trace_master.create ~kernel:live.Core.Runner.kernel
          ~port:live.Core.Runner.port ~mode:`Pipelined trace
      in
      ignore (Soc.Trace_master.run master ~kernel:live.Core.Runner.kernel ());
      let r = live.Core.Runner.finish () in
      let fronts =
        List.fold_left
          (fun acc level -> acc +. live.Core.Runner.front_pj level)
          0.0 (Hier.Policy.levels policy)
      in
      r.Core.Runner.txns + r.Core.Runner.errors = 96
      && r.Core.Runner.cycles = Sim.Kernel.now live.Core.Runner.kernel
      && Float.abs (r.Core.Runner.bus_pj -. fronts)
         <= 1e-9 *. Float.abs fronts
      (* Each window's profile is its own cycles' slice of its
         front-end's recording. *)
      && Float.abs
           (Power.Profile.total (Hier.Splice.profile r.Core.Runner.splice)
           -. fronts)
         <= 1e-9 *. Float.abs fronts)

(* The adaptive mixed-level comparison at reduced size: 2048
   transactions reach the EEPROM phase, so the run switches levels. *)
let test_adaptive_comparison () =
  let s =
    Core.Experiments.run_adaptive_comparison ~txns:2_048 ~repetitions:1 ()
  in
  Alcotest.(check int) "gate, L1, L2, adaptive" 4
    (List.length s.Core.Experiments.rows);
  Alcotest.(check bool) "switches levels" true (s.Core.Experiments.switches > 0);
  Alcotest.(check bool) "within its budget" true s.Core.Experiments.within_bound;
  Alcotest.(check bool) "renders" true
    (String.length (Core.Experiments.render_adaptive s) > 0)

let suite =
  [
    Alcotest.test_case "policy constant" `Quick test_policy_constant;
    Alcotest.test_case "policy schedule" `Quick test_policy_schedule;
    Alcotest.test_case "policy triggered" `Quick test_policy_triggered;
    Alcotest.test_case "splice totals" `Quick test_splice_totals;
    Alcotest.test_case "splice profile" `Quick test_splice_profile;
    Alcotest.test_case "degenerate L1 = pure L1" `Quick test_degenerate_l1;
    Alcotest.test_case "degenerate L2 = pure L2" `Quick test_degenerate_l2;
    Alcotest.test_case "handoff carries memory" `Quick test_handoff_carries_memory;
    Alcotest.test_case "layer-3 policy refused before cycle 0" `Quick
      test_l3_policy_refused;
    Alcotest.test_case "triggered policy refines EEPROM windows" `Quick
      test_adaptive_policy_refines_eeprom;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_script_splice_sums;
        prop_constant_equals_pure;
        prop_windows_hold_all_energy;
      ]
  @ [
      Alcotest.test_case "adaptive comparison (reduced)" `Quick
        test_adaptive_comparison;
    ]
