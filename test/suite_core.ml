(* Core facade: system assembly, runners, workloads, verification
   sequences, report rendering. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_system_levels () =
  List.iter
    (fun level ->
      let s = Core.System.create ~level () in
      check_bool "level kept" true (Core.System.level s = level);
      check_bool "not busy" false (Core.System.bus_busy s);
      check_int "nothing done" 0 (Core.System.completed_txns s))
    Core.Level.timed

let test_system_estimate_off () =
  let s = Core.System.create ~level:Core.Level.L1 ~estimate:false () in
  let kernel = Core.System.kernel s in
  let master =
    Soc.Trace_master.create ~kernel ~port:(Core.System.port s)
      [ Ec.Trace.item (Ec.Txn.single_read ~id:0 Soc.Platform.Map.rom_base) ]
  in
  ignore (Soc.Trace_master.run master ~kernel ());
  check_bool "no energy accounted" true (Core.System.bus_energy_pj s = 0.0);
  check_int "but traffic happened" 1 (Core.System.completed_txns s)

let test_system_profile_recording () =
  let s = Core.System.create ~level:Core.Level.L1 ~record_profile:true () in
  let kernel = Core.System.kernel s in
  Sim.Kernel.run kernel ~cycles:3;
  match Core.System.profile s with
  | Some p -> check_int "one sample per cycle" 3 (Power.Profile.length p)
  | None -> Alcotest.fail "profile expected"

let test_runner_trace_result_fields () =
  let r =
    Core.Runner.run_trace ~level:Core.Level.L1 Core.Verify_seqs.combined
  in
  check_int "txns" (Ec.Trace.total_txns Core.Verify_seqs.combined) r.Core.Runner.txns;
  check_int "beats" (Ec.Trace.total_beats Core.Verify_seqs.combined) r.Core.Runner.beats;
  check_int "no errors" 0 r.Core.Runner.errors;
  check_bool "cycles positive" true (r.Core.Runner.cycles > 0);
  check_bool "energy positive" true (r.Core.Runner.bus_pj > 0.0)

let test_runner_program () =
  let program = Soc.Asm.assemble (Core.Test_programs.checksum ~words:8) in
  let run = Core.Runner.run_program program in
  check_bool "halted cleanly" true (run.Core.Runner.fault = None);
  check_bool "instructions" true (run.Core.Runner.instructions > 10);
  (* The checksum ends up at the start of RAM. *)
  let ram = Soc.Platform.ram (Core.System.platform run.Core.Runner.system) in
  check_bool "sum stored" true
    (Soc.Memory.peek32 ram ~addr:Soc.Platform.Map.ram_base <> 0)

let test_runner_programs_all_clean () =
  List.iter
    (fun (name, src) ->
      let run = Core.Runner.run_program (Soc.Asm.assemble src) in
      check_bool (name ^ " clean") true (run.Core.Runner.fault = None))
    Core.Test_programs.all

let test_program_results_identical_across_levels () =
  (* The same program produces identical architectural results at every
     abstraction level. *)
  let program = Soc.Asm.assemble (Core.Test_programs.bubble_sort ~n:8) in
  let ram_dump level =
    let run = Core.Runner.run_program ~level program in
    check_bool "clean" true (run.Core.Runner.fault = None);
    let ram = Soc.Platform.ram (Core.System.platform run.Core.Runner.system) in
    ( List.init 8 (fun i ->
          Soc.Memory.peek32 ram ~addr:(Soc.Platform.Map.ram_base + (4 * i))),
      run.Core.Runner.instructions )
  in
  let rtl = ram_dump Core.Level.Rtl in
  let l1 = ram_dump Core.Level.L1 in
  let l2 = ram_dump Core.Level.L2 in
  Alcotest.(check (pair (list int) int)) "rtl = l1" rtl l1;
  Alcotest.(check (pair (list int) int)) "rtl = l2" rtl l2;
  Alcotest.(check (list int)) "sorted ascending" [ 1; 2; 3; 4; 5; 6; 7; 8 ] (fst rtl)

let test_capture_and_replay_cycles () =
  (* The traced program replayed on L1 takes about as long as the CPU run
     itself (same transactions, same gaps). *)
  let program = Soc.Asm.assemble (Core.Test_programs.memcpy ~words:8) in
  let live = Core.Runner.run_program ~level:Core.Level.Rtl program in
  let trace = Core.Runner.capture_cpu_trace program in
  check_bool "trace nonempty" true (Ec.Trace.total_txns trace > 20);
  let replay = Core.Runner.run_trace ~level:Core.Level.L1 ~mode:`Pipelined trace in
  let live_cycles = live.Core.Runner.result.Core.Runner.cycles in
  let diff = abs (replay.Core.Runner.cycles - live_cycles) in
  (* Gap-based replay cannot reproduce dependency stalls exactly; it must
     stay in the right ballpark. *)
  check_bool
    (Printf.sprintf "replay %d within 20%% of live %d" replay.Core.Runner.cycles
       live_cycles)
    true
    (float_of_int diff < 0.2 *. float_of_int live_cycles)

let test_characterize_reasonable () =
  let t = Core.Runner.characterize () in
  (* Derived averages exceed the naive 0.5*C*V^2 (coupling and slopes are
     folded in) but stay within a small factor. *)
  let default_addr = Power.Characterization.avg_addr_bit Power.Characterization.default in
  let derived_addr = Power.Characterization.avg_addr_bit t in
  check_bool "above default" true (derived_addr > default_addr);
  check_bool "below 2x" true (derived_addr < 2.0 *. default_addr)

let test_verify_seqs_complete () =
  (* The paper's list: single read/write with and without wait states,
     back-to-back, read/write ordering, bursts. *)
  List.iter
    (fun name ->
      check_bool name true (List.mem_assoc name Core.Verify_seqs.all))
    [
      "single-read-nowait"; "single-read-wait"; "single-write-nowait";
      "single-write-wait"; "back-to-back-reads"; "back-to-back-writes";
      "read-then-write"; "write-then-read-reorder"; "burst-reads";
      "burst-writes";
    ];
  check_int "combined covers all"
    (List.fold_left (fun acc (_, t) -> acc + List.length t) 0 Core.Verify_seqs.all)
    (List.length Core.Verify_seqs.combined)

let test_verify_seqs_error_free () =
  List.iter
    (fun (name, trace) ->
      let r = Core.Runner.run_trace ~level:Core.Level.L1 trace in
      check_int (name ^ " errors") 0 r.Core.Runner.errors)
    Core.Verify_seqs.all

let test_workload_random_error_free () =
  let rng = Sim.Rng.create ~seed:4242 in
  let trace = Core.Workloads.random_trace ~rng ~n:300 () in
  let r = Core.Runner.run_trace ~level:Core.Level.L1 trace in
  check_int "no decode errors" 0 r.Core.Runner.errors;
  check_int "all completed" 300 r.Core.Runner.txns

let test_workload_table3_covers_pairs () =
  let trace = Core.Workloads.table3_trace ~n:64 in
  let kind (txn : Ec.Txn.t) =
    match txn.Ec.Txn.dir, txn.Ec.Txn.burst with
    | Ec.Txn.Read, 1 -> 0
    | Ec.Txn.Write, 1 -> 1
    | Ec.Txn.Read, _ -> 2
    | Ec.Txn.Write, _ -> 3
  in
  let kinds = List.map (fun it -> kind it.Ec.Trace.txn) trace in
  let pairs = Hashtbl.create 16 in
  let rec note = function
    | a :: (b :: _ as rest) ->
      Hashtbl.replace pairs (a, b) ();
      note rest
    | [ _ ] | [] -> ()
  in
  note kinds;
  check_int "all 16 ordered pairs" 16 (Hashtbl.length pairs)

let test_report_table_layout () =
  let rendered =
    Core.Report.table ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "beta"; "22" ] ]
  in
  let lines = String.split_on_char '\n' rendered in
  check_int "four lines" 4 (List.length lines);
  (match lines with
  | header :: _ ->
    check_bool "header formatted" true (String.length header > 0);
    List.iter
      (fun l -> check_int "equal width" (String.length header) (String.length l))
      lines
  | [] -> Alcotest.fail "empty table");
  Alcotest.(check string) "pct" "+14.7%" (Core.Report.pct 14.7);
  Alcotest.(check string) "pct negative" "-7.8%" (Core.Report.pct (-7.8));
  Alcotest.(check string) "ratio" "92.1%" (Core.Report.ratio_pct ~reference:1000.0 921.0)

let test_component_energy_accumulates () =
  let program = Soc.Asm.assemble Core.Test_programs.peripherals_tour in
  let run = Core.Runner.run_program program in
  check_bool "components consumed energy" true
    (run.Core.Runner.result.Core.Runner.component_pj > 0.0);
  let system = run.Core.Runner.system in
  check_bool "total above bus" true
    (Core.System.bus_energy_pj system +. Core.System.component_energy_pj system
    > Core.System.bus_energy_pj system)

let suite =
  [
    Alcotest.test_case "system levels" `Quick test_system_levels;
    Alcotest.test_case "system estimate off" `Quick test_system_estimate_off;
    Alcotest.test_case "system profile recording" `Quick test_system_profile_recording;
    Alcotest.test_case "runner trace results" `Quick test_runner_trace_result_fields;
    Alcotest.test_case "runner program" `Quick test_runner_program;
    Alcotest.test_case "runner all programs clean" `Slow test_runner_programs_all_clean;
    Alcotest.test_case "program results equal across levels" `Slow
      test_program_results_identical_across_levels;
    Alcotest.test_case "capture and replay cycles" `Quick
      test_capture_and_replay_cycles;
    Alcotest.test_case "characterize reasonable" `Slow test_characterize_reasonable;
    Alcotest.test_case "verify sequences complete" `Quick test_verify_seqs_complete;
    Alcotest.test_case "verify sequences error free" `Quick
      test_verify_seqs_error_free;
    Alcotest.test_case "random workload error free" `Quick
      test_workload_random_error_free;
    Alcotest.test_case "table3 covers pairs" `Quick test_workload_table3_covers_pairs;
    Alcotest.test_case "report rendering" `Quick test_report_table_layout;
    Alcotest.test_case "component energy accumulates" `Quick
      test_component_energy_accumulates;
  ]

(* Extensions: sampler-based coding study and ablation smoke checks. *)

let test_coding_study_program () =
  let program = Soc.Asm.assemble (Core.Test_programs.memcpy ~words:8) in
  let study = Core.Coding_study.run_program ~name:"memcpy" program in
  check_bool "cycles recorded" true (study.Core.Coding_study.cycles > 0);
  check_int "three buses" 3 (List.length study.Core.Coding_study.rows);
  List.iter
    (fun r ->
      check_bool (r.Core.Coding_study.bus ^ " best <= plain") true
        (r.Core.Coding_study.best_pj <= r.Core.Coding_study.plain_pj +. 1e-9))
    study.Core.Coding_study.rows;
  check_bool "renders" true (String.length (Core.Coding_study.render study) > 0)

let test_coding_study_sequential_fetch_gray_wins () =
  (* A long straight-line instruction stream has sequential addresses:
     Gray coding must save address-bus toggles. *)
  let body = String.concat "\n" (List.init 64 (fun _ -> "addi r1, r1, 1")) in
  let program = Soc.Asm.assemble (body ^ "\nhalt") in
  let study = Core.Coding_study.run_program program in
  let addr_row =
    List.find (fun r -> r.Core.Coding_study.bus = "address")
      study.Core.Coding_study.rows
  in
  check_bool "gray saves on sequential fetch" true
    (addr_row.Core.Coding_study.report.Power.Coding.gray_savings_pct > 10.0)

let test_ablation_store_buffer_rows () =
  let rows = Core.Ablations.store_buffer_effect () in
  check_int "three programs" 3 (List.length rows);
  List.iter
    (fun r ->
      check_bool (r.Core.Ablations.label ^ " ratio >= 1") true
        (r.Core.Ablations.value >= 1.0))
    rows

let test_ablation_characterization_quality () =
  let rows = Core.Ablations.characterization_quality () in
  match rows with
  | [ default_row; derived_row ] ->
    check_bool "derived table more accurate" true
      (Float.abs derived_row.Core.Ablations.value
      < Float.abs default_row.Core.Ablations.value)
  | _ -> Alcotest.fail "two rows expected"

let extension_suite =
  [
    Alcotest.test_case "coding study on a program" `Slow test_coding_study_program;
    Alcotest.test_case "gray wins on sequential fetch" `Slow
      test_coding_study_sequential_fetch_gray_wins;
    Alcotest.test_case "ablation: store buffer rows" `Slow
      test_ablation_store_buffer_rows;
    Alcotest.test_case "ablation: characterization quality" `Slow
      test_ablation_characterization_quality;
  ]

let suite = suite @ extension_suite

(* Odds and ends across the facade. *)

let test_level_helpers () =
  check_int "three levels" 3 (List.length Core.Level.timed);
  Alcotest.(check string) "names" "gate-level" (Core.Level.to_string Core.Level.Rtl);
  Alcotest.(check string) "pp" "TL layer 2"
    (Format.asprintf "%a" Core.Level.pp Core.Level.L2)

let test_verify_seqs_find () =
  check_int "burst-reads size" 4 (List.length (Core.Verify_seqs.find "burst-reads"));
  check_bool "unknown raises" true
    (match Core.Verify_seqs.find "no-such-sequence" with
    | _ -> false
    | exception Not_found -> true)

let test_units_formatting () =
  Alcotest.(check string) "pJ" "3.000 pJ"
    (Format.asprintf "%a" Power.Units.pp_pj 3.0);
  Alcotest.(check string) "nJ" "2.500 nJ"
    (Format.asprintf "%a" Power.Units.pp_pj 2500.0);
  Alcotest.(check string) "uJ" "1.200 uJ"
    (Format.asprintf "%a" Power.Units.pp_pj 1.2e6)

let test_workload_determinism () =
  let gen () =
    let rng = Sim.Rng.create ~seed:99 in
    Ec.Trace.to_lines (Core.Workloads.random_trace ~rng ~n:50 ())
  in
  Alcotest.(check (list string)) "same seed, same trace" (gen ()) (gen ())

let test_monitor_gap_recording () =
  (* A serial replay through a monitored port records non-trivial gaps. *)
  let system = Core.System.create () in
  let kernel = Core.System.kernel system in
  let monitor = Soc.Monitor.create ~kernel (Core.System.port system) in
  let trace =
    [
      Ec.Trace.item (Ec.Txn.single_read ~id:0 Soc.Platform.Map.rom_base);
      Ec.Trace.item ~gap:5 (Ec.Txn.single_read ~id:0 (Soc.Platform.Map.rom_base + 4));
    ]
  in
  let master =
    Soc.Trace_master.create ~kernel ~port:(Soc.Monitor.port monitor) ~mode:`Serial
      trace
  in
  ignore (Soc.Trace_master.run master ~kernel ());
  check_int "two recorded" 2 (Soc.Monitor.count monitor);
  match Soc.Monitor.trace monitor with
  | [ _; second ] ->
    check_bool "gap preserved-ish" true (second.Ec.Trace.gap >= 5)
  | _ -> Alcotest.fail "two items expected"

let test_uart_program_output () =
  (* Run the checksum program, then give the UART time to shift. *)
  let program = Soc.Asm.assemble (Core.Test_programs.checksum ~words:4) in
  let run = Core.Runner.run_program program in
  let kernel = Core.System.kernel run.Core.Runner.system in
  Sim.Kernel.run kernel ~cycles:400;
  let uart = Soc.Platform.uart (Core.System.platform run.Core.Runner.system) in
  check_int "one byte transmitted" 1 (String.length (Soc.Uart.transmitted uart))

let test_profile_csv_export () =
  let run =
    Core.Runner.run_program ~record_profile:true
      (Soc.Asm.assemble "addi r1, r0, 1\nhalt")
  in
  match run.Core.Runner.result.Core.Runner.profile with
  | Some p ->
    let lines = Power.Profile.to_csv_lines p in
    check_int "one line per cycle + header"
      (Power.Profile.length p + 1)
      (List.length lines)
  | None -> Alcotest.fail "profile expected"

let misc_suite =
  [
    Alcotest.test_case "level helpers" `Quick test_level_helpers;
    Alcotest.test_case "verify_seqs find" `Quick test_verify_seqs_find;
    Alcotest.test_case "units formatting" `Quick test_units_formatting;
    Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
    Alcotest.test_case "monitor gap recording" `Quick test_monitor_gap_recording;
    Alcotest.test_case "uart program output" `Quick test_uart_program_output;
    Alcotest.test_case "profile csv export" `Quick test_profile_csv_export;
  ]

let suite = suite @ misc_suite
