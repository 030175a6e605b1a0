(* The adaptive mixed-level engine: policy decisions, energy splicing,
   switch-point handoff, and the degenerate-policy equivalences that pin
   run_adaptive to the pure runs. *)

module Gen = QCheck.Gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let obs ?(addr = 0) ?(cycle = 0) ?(txns_per_kcycle = 0.0) ?(pj_per_cycle = 0.0)
    txn_index =
  { Hier.Policy.txn_index; addr; cycle; txns_per_kcycle; pj_per_cycle }

(* --- policy --- *)

let test_policy_constant () =
  let p = Hier.Policy.constant Hier.Level.L2 in
  List.iter
    (fun i -> check_string "constant" "TL layer 2"
        (Hier.Level.to_string (Hier.Policy.decide p (obs i))))
    [ 0; 1; 1000 ]

let test_policy_script () =
  let p = Hier.Policy.script [ (3, Hier.Level.L2); (2, Hier.Level.L1) ] in
  let at i = Hier.Policy.decide p (obs i) in
  check_string "first segment" "TL layer 2" (Hier.Level.to_string (at 0));
  check_string "segment edge" "TL layer 2" (Hier.Level.to_string (at 2));
  check_string "second segment" "TL layer 1" (Hier.Level.to_string (at 3));
  (* Past the script end the last level holds. *)
  check_string "held" "TL layer 1" (Hier.Level.to_string (at 99));
  Alcotest.check_raises "empty script"
    (Invalid_argument "Hier.Policy.script: empty script") (fun () ->
      ignore (Hier.Policy.script []))

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
  (* A value written during the first (layer 1) window must be visible in
     the systems of every later window: the quiesced switch hands the
     memory contents across. *)
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
  let r =
    Core.Runner.run_adaptive
      ~policy:(Hier.Policy.script [ (8, Hier.Level.L1); (8, Hier.Level.L2) ])
      trace
  in
  check_int "two windows" 2 (List.length r.Core.Runner.splice.Hier.Splice.windows);
  check_int "one switch" 1 r.Core.Runner.switches;
  check_int "no errors" 0 r.Core.Runner.errors;
  match r.Core.Runner.final_system with
  | None -> Alcotest.fail "no final system"
  | Some system ->
    let ram = Soc.Platform.ram (Core.System.platform system) in
    check_int "written value visible after the switch" value
      (Soc.Memory.peek32 ram ~addr)

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

let arb_script =
  QCheck.make gen_script ~print:(fun s ->
      Hier.Policy.to_string (Hier.Policy.script s))

let prop_script_splice_sums =
  QCheck.Test.make ~name:"spliced totals = sum of window stats (any script)"
    ~count:12 arb_script (fun script ->
      let trace = Core.Workloads.mixed_phase_trace ~phase:16 ~n:96 () in
      let r =
        Core.Runner.run_adaptive ~init:Core.Runner.fill_memories
          ~policy:(Hier.Policy.script script) trace
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

let prop_constant_equals_pure =
  QCheck.Test.make ~name:"constant policy = pure run (both TL levels)"
    ~count:8
    (QCheck.make
       Gen.(pair (oneofl [ Hier.Level.L1; Hier.Level.L2 ]) (int_range 32 160))
       ~print:(fun (l, n) -> Printf.sprintf "%s n=%d" (Hier.Level.to_string l) n))
    (fun (level, n) ->
      let trace = Core.Workloads.mixed_phase_trace ~phase:16 ~n () in
      let pure =
        Core.Runner.run_trace ~level ~init:Core.Runner.fill_memories trace
      in
      let a =
        Core.Runner.run_adaptive ~init:Core.Runner.fill_memories
          ~policy:(Hier.Policy.constant level) trace
      in
      pure.Core.Runner.cycles = a.Core.Runner.cycles
      && pure.Core.Runner.txns = a.Core.Runner.txns
      && pure.Core.Runner.beats = a.Core.Runner.beats
      && pure.Core.Runner.bus_pj = a.Core.Runner.bus_pj
      && pure.Core.Runner.component_pj = a.Core.Runner.component_pj)

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
    Alcotest.test_case "policy script" `Quick test_policy_script;
    Alcotest.test_case "policy triggered" `Quick test_policy_triggered;
    Alcotest.test_case "splice totals" `Quick test_splice_totals;
    Alcotest.test_case "splice profile" `Quick test_splice_profile;
    Alcotest.test_case "degenerate L1 = pure L1" `Quick test_degenerate_l1;
    Alcotest.test_case "degenerate L2 = pure L2" `Quick test_degenerate_l2;
    Alcotest.test_case "handoff carries memory" `Quick test_handoff_carries_memory;
    Alcotest.test_case "triggered policy refines EEPROM windows" `Quick
      test_adaptive_policy_refines_eeprom;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_script_splice_sums; prop_constant_equals_pure ]
  @ [
      Alcotest.test_case "adaptive comparison (reduced)" `Quick
        test_adaptive_comparison;
    ]
