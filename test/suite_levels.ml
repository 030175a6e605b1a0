(* Cross-level relationships: the verification results of the paper's
   section 4.1 as executable checks. *)

open Bus_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mixed_trace ?(disjoint = false) n seed =
  (* Random traffic over the harness memory map (distinct from the
     platform map used by Core.Workloads).  With [disjoint], reads and
     writes target separate halves of each region so no read-after-write
     hazard exists: under pipelined replay the independent read and write
     buses may legitimately reorder a read around an earlier write, and
     layer 2 (serialized data phases) resolves such races differently. *)
  let rng = Sim.Rng.create ~seed in
  let wbase region = if disjoint then region + 0x800 else region in
  let item i =
    let gap = Sim.Rng.int rng 3 in
    let region = if Sim.Rng.bool rng then fast_base else slow_base in
    let addr4 = region + (4 * Sim.Rng.int rng 16) in
    let txn =
      match Sim.Rng.int rng 6 with
      | 0 -> read addr4
      | 1 -> write (wbase region + (4 * Sim.Rng.int rng 16)) (Sim.Rng.bits rng 32)
      | 2 -> bread (region + (16 * Sim.Rng.int rng 4))
      | 3 ->
        bwrite
          (wbase region + (16 * Sim.Rng.int rng 4))
          (Array.init 4 (fun _ -> Sim.Rng.bits rng 32))
      | 4 -> read ~width:Ec.Txn.W8 (region + Sim.Rng.int rng 64)
      | _ ->
        write ~width:Ec.Txn.W16
          (wbase region + (2 * Sim.Rng.int rng 32))
          (Sim.Rng.bits rng 16)
    in
    ignore i;
    Ec.Trace.item ~gap txn
  in
  List.init n item

(* Table 1's 0% row: the layer-1 model is cycle-identical to the RTL
   reference, serially and pipelined, across random traffic. *)
let test_l1_cycle_equality () =
  List.iter
    (fun seed ->
      List.iter
        (fun mode ->
          let trace = mixed_trace 60 seed in
          let _, rtl_cycles = run_trace ~mode Rtl_l trace in
          let _, l1_cycles = run_trace ~mode L1_l trace in
          check_int
            (Printf.sprintf "seed %d %s" seed
               (match mode with `Serial -> "serial" | `Pipelined -> "pipelined"))
            rtl_cycles l1_cycles)
        [ `Serial; `Pipelined ])
    [ 11; 22; 33; 44 ]

(* The layer-1 energy model sees exactly the interface transitions the
   RTL wires make. *)
let test_l1_transition_equality () =
  List.iter
    (fun seed ->
      let trace = mixed_trace 50 seed in
      let rtl, _ = run_trace Rtl_l trace in
      let l1, _ = run_trace L1_l trace in
      check_int (Printf.sprintf "seed %d" seed) (rtl.transitions ())
        (l1.transitions ()))
    [ 5; 6; 7 ]

(* With the idealized electrical parameters (no coupling, no slopes, no
   internal nets) the reference degenerates to the layer-1 estimate. *)
let test_l1_matches_ideal_rtl () =
  let trace = mixed_trace 50 99 in
  let rtl, _ = run_trace ~rtl_params:Rtl.Params.ideal Rtl_l trace in
  let l1, _ = run_trace L1_l trace in
  let e_rtl = rtl.energy_pj () and e_l1 = l1.energy_pj () in
  check_bool
    (Printf.sprintf "ideal rtl %.3f = l1 %.3f" e_rtl e_l1)
    true
    (Float.abs (e_rtl -. e_l1) < 1e-6 *. Float.max 1.0 e_rtl)

(* With realistic parameters the reference dissipates strictly more than
   the layer-1 estimate (internal nets are invisible at TL). *)
let test_l1_underestimates () =
  let trace = mixed_trace 80 123 in
  let rtl, _ = run_trace Rtl_l trace in
  let l1, _ = run_trace L1_l trace in
  check_bool "rtl above l1" true (rtl.energy_pj () > l1.energy_pj ());
  check_bool "l1 positive" true (l1.energy_pj () > 0.0)

(* Layer-2 timing never beats layer 1 (its data engine is serialized) and
   is exact on strictly serial traffic. *)
let test_l2_timing_bounds () =
  List.iter
    (fun seed ->
      let trace = mixed_trace 40 seed in
      let _, l1_serial = run_trace ~mode:`Serial L1_l trace in
      let _, l2_serial = run_trace ~mode:`Serial L2_l trace in
      check_int (Printf.sprintf "serial equal seed %d" seed) l1_serial l2_serial;
      let _, l1_pipe = run_trace ~mode:`Pipelined L1_l trace in
      let _, l2_pipe = run_trace ~mode:`Pipelined L2_l trace in
      check_bool "pipelined l2 >= l1" true (l2_pipe >= l1_pipe))
    [ 2; 3; 4 ]

(* Functional results are level-independent: read data identical. *)
let test_read_results_equal_across_levels () =
  let trace = mixed_trace ~disjoint:true 40 7 in
  let results =
    List.map
      (fun level ->
        let h = build level in
        (* Pre-fill memories identically. *)
        List.iter
          (fun m ->
            let base = (Soc.Memory.cfg m).Ec.Slave_cfg.base in
            for w = 0 to 63 do
              Soc.Memory.poke32 m ~addr:(base + (4 * w)) ((w * 0x01010101) land 0xFFFFFFFF)
            done)
          [ h.fast; h.slow; h.rom ];
        let master =
          Soc.Trace_master.create ~kernel:h.kernel ~port:h.port ~keep_results:true
            trace
        in
        ignore (Soc.Trace_master.run master ~kernel:h.kernel ());
        List.filter_map
          (fun (txn : Ec.Txn.t) ->
            match txn.Ec.Txn.dir with
            | Ec.Txn.Read -> Some (txn.Ec.Txn.addr, Array.to_list txn.Ec.Txn.data)
            | Ec.Txn.Write -> None)
          (Soc.Trace_master.results master)
        |> List.sort compare)
      all_levels
  in
  match results with
  | [ rtl; l1; l2 ] ->
    check_bool "rtl = l1" true (rtl = l1);
    check_bool "rtl = l2" true (rtl = l2)
  | _ -> assert false

(* The four checks above as properties over the shared generator of
   platform traffic (the Figure-1 map, [Core.Workloads.random_trace]'s
   knobs, blank or filled memories, either issue mode); the fixed-seed
   tests stay as examples. *)

module Traffic = Platform_traffic

let run_platform ?estimate ?rtl_params level (c : Traffic.t) =
  Core.Runner.run_trace ~level ?estimate ?rtl_params ~mode:c.Traffic.mode
    ?init:(Traffic.init c) (Traffic.trace c)

let prop_l1_cycles =
  QCheck.Test.make ~name:"l1 cycles = rtl cycles on platform traffic"
    ~count:40 (Traffic.arb ()) (fun c ->
      (run_platform Core.Level.L1 c).Core.Runner.cycles
      = (run_platform Core.Level.Rtl c).Core.Runner.cycles)

let prop_l1_transitions =
  QCheck.Test.make ~name:"l1 transitions = rtl transitions on platform traffic"
    ~count:40 (Traffic.arb ()) (fun c ->
      (run_platform Core.Level.L1 c).Core.Runner.transitions
      = (run_platform Core.Level.Rtl c).Core.Runner.transitions)

let prop_l1_ideal_energy =
  QCheck.Test.make ~name:"l1 energy = ideal rtl energy on platform traffic"
    ~count:40 (Traffic.arb ()) (fun c ->
      let e_rtl =
        (run_platform ~rtl_params:Rtl.Params.ideal Core.Level.Rtl c)
          .Core.Runner.bus_pj
      and e_l1 = (run_platform Core.Level.L1 c).Core.Runner.bus_pj in
      Float.abs (e_rtl -. e_l1) < 1e-6 *. Float.max 1.0 e_rtl)

(* Every read's address, width and data, as a sorted multiset: the levels
   complete transactions in different orders, not with different data. *)
let platform_reads ?estimate ?init ~mode level trace =
  let system = Core.System.create ~level ?estimate () in
  Option.iter (fun init -> init system) init;
  let kernel = Core.System.kernel system in
  let master =
    Soc.Trace_master.create ~kernel ~port:(Core.System.port system) ~mode
      ~keep_results:true trace
  in
  ignore (Soc.Trace_master.run master ~kernel ());
  List.filter_map
    (fun (txn : Ec.Txn.t) ->
      match txn.Ec.Txn.dir with
      | Ec.Txn.Read ->
        Some (txn.Ec.Txn.addr, txn.Ec.Txn.width, Array.to_list txn.Ec.Txn.data)
      | Ec.Txn.Write -> None)
    (Soc.Trace_master.results master)
  |> List.sort compare

let traffic_reads ?estimate level (c : Traffic.t) =
  platform_reads ?estimate ?init:(Traffic.init c) ~mode:c.Traffic.mode level
    (Traffic.trace c)

(* Layer 1 moves every beat in the gate level's cycle, so it reads what
   the gate level reads in either mode.  Layer 2 serializes all data
   phases in one engine: pipelined, a read granted while an earlier
   burst write to its word is still moving returns the written word,
   where the gate level's separate read bus returns the old one
   (test/l2_raw_hazard.trace).  Its reads equal the gate level's in
   serial issue only. *)
let prop_read_results_l1 =
  QCheck.Test.make ~name:"read results rtl = l1 on platform traffic"
    ~count:40 (Traffic.arb ()) (fun c ->
      traffic_reads Core.Level.Rtl c = traffic_reads Core.Level.L1 c)

let prop_read_results_l2 =
  QCheck.Test.make ~name:"serial read results rtl = l2 on platform traffic"
    ~count:40 (Traffic.arb ~mode:`Serial ()) (fun c ->
      traffic_reads Core.Level.Rtl c = traffic_reads Core.Level.L2 c)

let test_l2_raw_hazard () =
  let trace = Ec.Trace.load (Test_data.path "l2_raw_hazard.trace") in
  let reads ~mode level = platform_reads ~mode level trace in
  let rtl = reads ~mode:`Pipelined Core.Level.Rtl in
  check_bool "pipelined rtl = l1" true
    (rtl = reads ~mode:`Pipelined Core.Level.L1);
  check_bool "pipelined l2 reads the written word" true
    (rtl <> reads ~mode:`Pipelined Core.Level.L2);
  check_bool "serial rtl = l2" true
    (reads ~mode:`Serial Core.Level.Rtl = reads ~mode:`Serial Core.Level.L2)

(* Layer 1 without its estimator runs the same phase machine, which
   drives the wires that nothing then commits: the traffic is the gate
   level's, and no energy or transition is counted. *)
let prop_l1_estimate_off =
  QCheck.Test.make ~name:"estimate-off l1 traffic = rtl traffic on platform traffic"
    ~count:40 (Traffic.arb ()) (fun c ->
      let off = run_platform ~estimate:false Core.Level.L1 c
      and rtl = run_platform Core.Level.Rtl c in
      off.Core.Runner.cycles = rtl.Core.Runner.cycles
      && off.Core.Runner.txns = rtl.Core.Runner.txns
      && off.Core.Runner.beats = rtl.Core.Runner.beats
      && off.Core.Runner.errors = rtl.Core.Runner.errors
      && off.Core.Runner.bus_pj = 0.
      && off.Core.Runner.transitions = 0
      && traffic_reads ~estimate:false Core.Level.L1 c
         = traffic_reads Core.Level.Rtl c)

let prop_l2_serial_cycles =
  QCheck.Test.make ~name:"serial l2 cycles = l1 cycles on platform traffic"
    ~count:40 (Traffic.arb ~mode:`Serial ()) (fun c ->
      (run_platform Core.Level.L2 c).Core.Runner.cycles
      = (run_platform Core.Level.L1 c).Core.Runner.cycles)

(* The layer-3 contract: serial blocking replay on the layer-2 carrier
   is serial layer-2 issue, one cycle shorter.  The trace master spends
   one more cycle to see the last completion, an idle cycle that adds an
   empty profile entry (and one idle peripheral cycle to [component_pj],
   which is left out).  Layer 3 has no issue mode: the drawn one is
   ignored there. *)
let prop_l3_serial_l2 =
  QCheck.Test.make ~name:"l3 = serial l2 less one idle cycle on platform traffic"
    ~count:40 (Traffic.arb ()) (fun c ->
      let run level mode =
        Core.Runner.run_trace ~level ~record_profile:true ~mode
          ?init:(Traffic.init c) (Traffic.trace c)
      in
      let l3 = run Core.Level.L3 c.Traffic.mode
      and l2 = run Core.Level.L2 `Serial in
      let profile (r : Core.Runner.result) =
        Power.Profile.to_array (Option.get r.Core.Runner.profile)
      in
      let p3 = profile l3 and p2 = profile l2 in
      let n = Array.length p3 in
      l3.Core.Runner.bus_pj = l2.Core.Runner.bus_pj
      && l3.Core.Runner.txns = l2.Core.Runner.txns
      && l3.Core.Runner.beats = l2.Core.Runner.beats
      && l3.Core.Runner.errors = l2.Core.Runner.errors
      && l3.Core.Runner.transitions = l2.Core.Runner.transitions
      && l3.Core.Runner.cycles = l2.Core.Runner.cycles - 1
      && Array.length p2 = n + 1
      && Array.sub p2 0 n = p3
      && p2.(n) = 0.0)

let platform_props =
  Alcotest.test_case "pipelined l2 read-after-write hazard (saved case)"
    `Quick test_l2_raw_hazard
  :: List.map QCheck_alcotest.to_alcotest
    [
      prop_l1_cycles;
      prop_l1_transitions;
      prop_l1_ideal_energy;
      prop_l1_estimate_off;
      prop_read_results_l1;
      prop_read_results_l2;
      prop_l2_serial_cycles;
      prop_l3_serial_l2;
    ]

(* Power interface semantics (paper 3.3): last-cycle energy and
   energy-since-last-call. *)
let test_meter_interface () =
  let m = Power.Meter.create ~record_profile:true () in
  Power.Meter.add m 2.0;
  Power.Meter.add m 3.0;
  Power.Meter.end_cycle m;
  Alcotest.(check (float 1e-9)) "last cycle" 5.0 (Power.Meter.last_cycle_pj m);
  Power.Meter.add m 1.0;
  Power.Meter.end_cycle m;
  Alcotest.(check (float 1e-9)) "since last call" 6.0 (Power.Meter.since_last_call_pj m);
  Power.Meter.add m 4.0;
  Power.Meter.end_cycle m;
  Alcotest.(check (float 1e-9)) "delta only" 4.0 (Power.Meter.since_last_call_pj m);
  Alcotest.(check int) "cycles" 3 (Power.Meter.cycles m);
  match Power.Meter.profile m with
  | Some p ->
    Alcotest.(check int) "profile length" 3 (Power.Profile.length p);
    Alcotest.(check (float 1e-9)) "profile total" 10.0 (Power.Profile.total p)
  | None -> Alcotest.fail "profile requested"

(* Figure 6 semantics: the layer-2 profile is phase-lumped (energy lands
   only in completion cycles), the layer-1 profile is cycle-accurate. *)
let test_l2_lumped_profile () =
  let trace = [ Ec.Trace.item (bread slow_base) ] in
  let nonzero_cycles h =
    match h.profile () with
    | None -> Alcotest.fail "profile expected"
    | Some p ->
      let n = ref 0 in
      for i = 0 to Power.Profile.length p - 1 do
        if Power.Profile.get p i > 0.0 then incr n
      done;
      !n
  in
  let h1, _ = run_trace ~record_profile:true L1_l trace in
  let h2, _ = run_trace ~record_profile:true L2_l trace in
  (* A slow burst read: layer 1 dissipates in the address cycles and in
     each of the four beat cycles; layer 2 lumps everything into the two
     phase-completion cycles. *)
  check_bool "l1 cycle-accurate spread" true (nonzero_cycles h1 >= 4);
  check_int "l2 two lumps" 2 (nonzero_cycles h2)

let suite =
  [
    Alcotest.test_case "l1 cycles == rtl cycles (Table 1)" `Quick
      test_l1_cycle_equality;
    Alcotest.test_case "l1 transitions == rtl transitions" `Quick
      test_l1_transition_equality;
    Alcotest.test_case "l1 == ideal rtl energy" `Quick test_l1_matches_ideal_rtl;
    Alcotest.test_case "l1 underestimates real rtl (Table 2 sign)" `Quick
      test_l1_underestimates;
    Alcotest.test_case "l2 timing bounds" `Quick test_l2_timing_bounds;
    Alcotest.test_case "read results equal across levels" `Quick
      test_read_results_equal_across_levels;
    Alcotest.test_case "power interface semantics" `Quick test_meter_interface;
    Alcotest.test_case "l2 lumped vs l1 profile" `Quick test_l2_lumped_profile;
  ]
  @ platform_props

(* VCD waveform dumping on the RTL model. *)
let test_vcd_dump () =
  let program = Soc.Asm.assemble (Core.Test_programs.memcpy ~words:4) in
  let path = Filename.temp_file "bus" ".vcd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let run = Core.Runner.run_program ~level:Core.Level.Rtl ~vcd:path program in
      check_bool "clean" true (run.Core.Runner.fault = None);
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let contains needle =
        let h = String.length text and n = String.length needle in
        let rec loop i =
          i + n <= h && (String.sub text i n = needle || loop (i + 1))
        in
        loop 0
      in
      check_bool "header" true (contains "$enddefinitions $end");
      check_bool "declares the address bus" true (contains "$var wire 34");
      check_bool "declares data buses" true (contains "$var wire 32");
      check_bool "has vector changes" true (contains "\nb");
      check_bool "has timesteps" true (contains "\n#1"))

let test_vcd_rejected_on_tlm () =
  let program = Soc.Asm.assemble "halt" in
  check_bool "vcd needs rtl" true
    (match Core.Runner.run_program ~level:Core.Level.L1 ~vcd:"/tmp/x.vcd" program with
    | _ -> false
    | exception Invalid_argument _ -> true)

let vcd_suite =
  [
    Alcotest.test_case "vcd dump" `Quick test_vcd_dump;
    Alcotest.test_case "vcd rejected on tlm" `Quick test_vcd_rejected_on_tlm;
  ]

let suite = suite @ vcd_suite
