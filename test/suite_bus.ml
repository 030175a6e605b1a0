(* Protocol behaviour of the three bus models, checked against the
   analytic timing rules and against each other. *)

open Bus_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Isolated transaction latencies must match Ec.Timing on every model
   (layer 2 is exact on isolated transactions too). *)
let test_isolated_latencies () =
  let fast_cfg = Ec.Slave_cfg.make ~name:"f" ~base:fast_base ~size:0x1000 () in
  let slow_cfg =
    Ec.Slave_cfg.make ~name:"s" ~base:slow_base ~size:0x1000 ~addr_wait:1
      ~read_wait:2 ~write_wait:4 ()
  in
  let cases =
    [
      (read fast_base, fast_cfg);
      (write fast_base 0xAB, fast_cfg);
      (bread fast_base, fast_cfg);
      (bwrite fast_base [| 1; 2; 3; 4 |], fast_cfg);
      (read slow_base, slow_cfg);
      (write slow_base 0xCD, slow_cfg);
      (bread slow_base, slow_cfg);
      (bwrite slow_base [| 5; 6; 7; 8 |], slow_cfg);
      (read ~width:Ec.Txn.W8 (fast_base + 1), fast_cfg);
      (write ~width:Ec.Txn.W16 (slow_base + 2) 0x1234, slow_cfg);
    ]
  in
  List.iter
    (fun level ->
      List.iter
        (fun (txn, cfg) ->
          let h = build level in
          let expected = Ec.Timing.isolated_latency cfg txn in
          let txn = Ec.Trace.(instantiate ids (item txn)).Ec.Trace.txn in
          let got = run_one h txn in
          Alcotest.(check int)
            (Printf.sprintf "%s %s" (level_name level)
               (Format.asprintf "%a" Ec.Txn.pp txn))
            expected got)
        cases)
    all_levels

(* A stream of zero-wait single reads sustains one per cycle at the
   cycle-accurate levels. *)
let test_back_to_back_throughput () =
  let trace = List.init 16 (fun i -> Ec.Trace.item (read (fast_base + (4 * i)))) in
  List.iter
    (fun level ->
      let h, cycles = run_trace level trace in
      check_int (level_name level ^ " completed") 16 (Iface.completed_txns h.iface);
      check_bool
        (level_name level ^ " near one per cycle")
        true
        (cycles <= 16 + 4))
    all_levels

(* Read and write data phases overlap at RTL/L1 (separate buses) but are
   serialized at L2. *)
let test_read_write_overlap () =
  let trace =
    [
      Ec.Trace.item (write slow_base 0xAAAA);
      Ec.Trace.item (read fast_base);
    ]
  in
  let results = run_all_levels trace in
  match List.map snd results with
  | [ rtl; l1; l2 ] ->
    check_int "rtl equals l1" rtl l1;
    check_bool "l2 at least as long" true (l2 >= l1)
  | _ -> assert false

(* Data integrity through each model: writes land, reads return them,
   sub-word merge patterns hit the right byte lanes. *)
let test_data_integrity () =
  List.iter
    (fun level ->
      let h = build level in
      ignore (run_one h (write fast_base 0x11223344));
      ignore (run_one h (write ~width:Ec.Txn.W8 (fast_base + 1) 0xAB));
      ignore (run_one h (write ~width:Ec.Txn.W16 (fast_base + 6) 0xBEEF));
      let r1 = read fast_base in
      ignore (run_one h r1);
      check_int (level_name level ^ " byte merged") 0x1122AB44 r1.Ec.Txn.data.(0);
      let r2 = read ~width:Ec.Txn.W16 (fast_base + 6) in
      ignore (run_one h r2);
      check_int (level_name level ^ " half") 0xBEEF r2.Ec.Txn.data.(0);
      let r3 = read ~width:Ec.Txn.W8 (fast_base + 1) in
      ignore (run_one h r3);
      check_int (level_name level ^ " byte") 0xAB r3.Ec.Txn.data.(0))
    all_levels

let test_burst_data_integrity () =
  List.iter
    (fun level ->
      let h = build level in
      let values = [| 0xDEAD; 0xBEEF; 0xCAFE; 0xF00D |] in
      ignore (run_one h (bwrite slow_base values));
      let r = bread slow_base in
      ignore (run_one h r);
      Alcotest.(check (array int)) (level_name level ^ " burst") values r.Ec.Txn.data)
    all_levels

(* Bus errors: unmapped addresses and access-right violations complete
   with the error state; later traffic is unaffected. *)
let test_bus_errors () =
  List.iter
    (fun level ->
      let h = build level in
      let bad = read 0x8000 in
      assert (h.port.Ec.Port.try_submit bad);
      ignore
        (Sim.Kernel.run_until h.kernel ~max_cycles:100 (fun () ->
             Ec.Port.completed h.port bad.Ec.Txn.id));
      check_bool (level_name level ^ " unmapped fails") true
        (Ec.Port.take h.port bad.Ec.Txn.id = Ec.Port.Failed);
      let rom_write = write rom_base 1 in
      assert (h.port.Ec.Port.try_submit rom_write);
      ignore
        (Sim.Kernel.run_until h.kernel ~max_cycles:100 (fun () ->
             Ec.Port.completed h.port rom_write.Ec.Txn.id));
      check_bool (level_name level ^ " rom write fails") true
        (Ec.Port.take h.port rom_write.Ec.Txn.id = Ec.Port.Failed);
      check_int (level_name level ^ " error count") 2 (Iface.error_txns h.iface);
      let ok = read fast_base in
      ignore (run_one h ok);
      check_int (level_name level ^ " still works") 1 (Iface.completed_txns h.iface))
    all_levels

(* Execute-right enforcement: instruction fetch from a non-executable
   slave errors, from ROM succeeds. *)
let test_execute_rights () =
  List.iter
    (fun level ->
      let h = build level in
      let fetch_rom = read ~kind:Ec.Txn.Instruction rom_base in
      ignore (run_one h fetch_rom);
      check_int (level_name level ^ " rom fetch ok") 1 (Iface.completed_txns h.iface);
      let fetch_slow = read ~kind:Ec.Txn.Instruction slow_base in
      assert (h.port.Ec.Port.try_submit fetch_slow);
      ignore
        (Sim.Kernel.run_until h.kernel ~max_cycles:100 (fun () ->
             Ec.Port.completed h.port fetch_slow.Ec.Txn.id));
      check_bool (level_name level ^ " nx fetch fails") true
        (Ec.Port.take h.port fetch_slow.Ec.Txn.id = Ec.Port.Failed))
    all_levels

(* The EC interface limits each category to four outstanding
   transactions. *)
let test_outstanding_limit () =
  List.iter
    (fun level ->
      let h = build level in
      for i = 0 to 3 do
        check_bool
          (Printf.sprintf "%s read %d accepted" (level_name level) i)
          true
          (h.port.Ec.Port.try_submit (read (slow_base + (4 * i))))
      done;
      check_bool (level_name level ^ " fifth refused") false
        (h.port.Ec.Port.try_submit (read slow_base));
      (* A different category still has room. *)
      check_bool (level_name level ^ " write accepted") true
        (h.port.Ec.Port.try_submit (write fast_base 1));
      check_bool (level_name level ^ " instr accepted") true
        (h.port.Ec.Port.try_submit (read ~kind:Ec.Txn.Instruction rom_base));
      ignore (Sim.Kernel.run_until h.kernel ~max_cycles:1000 (fun () -> not (Iface.busy h.iface)));
      check_int (level_name level ^ " all done") 6 (Iface.completed_txns h.iface))
    all_levels

(* After completion the bus goes idle and stays idle. *)
let test_busy_clears () =
  List.iter
    (fun level ->
      let h = build level in
      check_bool "idle initially" false (Iface.busy h.iface);
      ignore (run_one h (bread slow_base));
      check_bool "idle after" false (Iface.busy h.iface);
      let before = Sim.Kernel.now h.kernel in
      Sim.Kernel.run h.kernel ~cycles:5;
      check_int "still no txns" 1 (Iface.completed_txns h.iface);
      check_int "time advanced" (before + 5) (Sim.Kernel.now h.kernel))
    all_levels

(* Pipelining: consecutive bursts overlap address and data phases, so the
   total is less than the sum of isolated latencies (RTL and L1). *)
let test_pipelining_gain () =
  let trace = List.init 4 (fun i -> Ec.Trace.item (bread (slow_base + (16 * i)))) in
  let slow_cfg =
    Ec.Slave_cfg.make ~name:"s" ~base:slow_base ~size:0x1000 ~addr_wait:1
      ~read_wait:2 ~write_wait:4 ()
  in
  let isolated = Ec.Timing.isolated_latency slow_cfg (bread slow_base) in
  List.iter
    (fun level ->
      let _, cycles = run_trace level trace in
      check_bool
        (level_name level ^ " pipelined faster than serial")
        true
        (cycles < 4 * isolated))
    [ Rtl_l; L1_l ]

(* L1 structural view (Figure 3): while a slow burst's data phase runs,
   later requests pile up in the request queue. *)
let test_l1_queue_depths () =
  let h = build L1_l in
  let bus = match h.l1_bus with Some b -> b | None -> assert false in
  assert (h.port.Ec.Port.try_submit (bread slow_base));
  assert (h.port.Ec.Port.try_submit (bread (slow_base + 16)));
  assert (h.port.Ec.Port.try_submit (bread (slow_base + 32)));
  (* After a few cycles the first is in its data phase and at least one
     other waits in the request queue. *)
  Sim.Kernel.run h.kernel ~cycles:3;
  let req, rd, _wr = Rtl.Bus.queue_depths (Tlm1.Bus.engine bus) in
  check_bool "request queue occupied" true (req >= 1 || rd >= 1);
  ignore (Sim.Kernel.run_until h.kernel ~max_cycles:200 (fun () -> not (Iface.busy h.iface)));
  let req, rd, wr = Rtl.Bus.queue_depths (Tlm1.Bus.engine bus) in
  check_int "queues drained" 0 (req + rd + wr)

(* RTL wires: a single read pulses RdVal exactly once (two edge
   transitions), ARdy once, and leaves the data bus holding the value. *)
let test_rtl_strobes () =
  let h = build Rtl_l in
  let bus = match h.rtl_bus with Some b -> b | None -> assert false in
  Soc.Memory.poke32 h.fast ~addr:fast_base 0xFFFFFFFF;
  ignore (run_one h (read fast_base));
  Sim.Kernel.run h.kernel ~cycles:2;
  let per_wire = Rtl.Diesel.per_signal_transitions (Rtl.Bus.diesel bus) in
  let transitions c = per_wire.(Ec.Signals.index (Ec.Signals.Ctrl c)) in
  check_int "rdval pulses once" 2 (transitions Ec.Signals.Rdval);
  check_int "ardy pulses once" 2 (transitions Ec.Signals.Ardy);
  check_int "no write strobes" 0 (transitions Ec.Signals.Wdrdy);
  check_int "rdata holds value" 0xFFFFFFFF (Rtl.Bus.wires bus).Rtl.Wires.rdata

(* The write data bus drives the pending beat during wait states. *)
let test_rtl_wdata_during_waits () =
  let h = build Rtl_l in
  let bus = match h.rtl_bus with Some b -> b | None -> assert false in
  let txn = write slow_base 0x12345678 in
  assert (h.port.Ec.Port.try_submit txn);
  (* Address phase takes 2 cycles; write waits follow.  After 4 cycles the
     data should be on the bus while WDRdy is still low. *)
  Sim.Kernel.run h.kernel ~cycles:4;
  let wires = Rtl.Bus.wires bus in
  check_int "wdata driven early" 0x12345678 wires.Rtl.Wires.wdata;
  check_bool "write not yet done" true
    (Ec.Port.completed h.port txn.Ec.Txn.id = false);
  ignore
    (Sim.Kernel.run_until h.kernel ~max_cycles:100 (fun () ->
         Ec.Port.completed h.port txn.Ec.Txn.id))

(* An idle bus cycle allocates nothing: a 1000-cycle run allocates what a
   0-cycle run does (the run loop's own closure).  At the gate level that
   covers the kernel, the bus process clearing its strobes and the
   estimator's observation and commit; at layers 1 and 2 the bus phases
   and the estimator's cycle fold. *)
let idle_cycle_allocates_nothing level () =
  let system = Core.System.create ~level () in
  let kernel = Core.System.kernel system in
  Sim.Kernel.run kernel ~cycles:8;
  let minor_words run =
    let before = Gc.minor_words () in
    run ();
    Gc.minor_words () -. before
  in
  let fixed = minor_words (fun () -> Sim.Kernel.run kernel ~cycles:0) in
  Alcotest.(check (float 0.0)) "minor words over 1000 idle cycles" fixed
    (minor_words (fun () -> Sim.Kernel.run kernel ~cycles:1000))

(* The gate level and layer 1 run one phase machine and differ only in
   the estimator closing each cycle, neither of which allocates: a warm
   pooled replay of the same trace allocates as many minor words at both
   levels.  A per-transaction allocation of one level's bus process (an
   option per queue pop, a closure per dispatched data phase) shows as a
   difference of thousands of words. *)
let test_cycle_accurate_alloc_equal () =
  let pool = Core.Pool.create () in
  let trace = Core.Workloads.table3_trace ~n:2000 in
  let words level =
    let run () =
      ignore
        (Core.Runner.run_trace ~level ~mode:`Pipelined
           ~init:Core.Runner.fill_memories ~pool trace)
    in
    run ();
    let before = Gc.minor_words () in
    run ();
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.0)) "l1 minor words = rtl minor words"
    (words Core.Level.Rtl) (words Core.Level.L1)

(* [Ec.Port.transact], the one blocking adapter of untimed callers: a
   submission refused for a full category is retried until the bus takes
   it.  Four zero-gap burst writes to the slow memory fill the write
   category; the fifth write's first submission is refused, and the
   counting port shows it was submitted again. *)
let test_transact_retries () =
  List.iter
    (fun level ->
      let name = level_name level in
      let h = build level in
      for i = 0 to 3 do
        assert (
          h.port.Ec.Port.try_submit
            (bwrite (slow_base + (16 * i)) [| i; i; i; i |]))
      done;
      let submissions = ref 0 in
      let port =
        {
          h.port with
          Ec.Port.try_submit =
            (fun txn ->
              incr submissions;
              h.port.Ec.Port.try_submit txn);
        }
      in
      let fifth = write (slow_base + 0x100) 0xCAFE in
      check_bool (name ^ " fifth write done") true
        (Ec.Port.transact ~kernel:h.kernel port fifth = Ec.Port.Done);
      check_bool (name ^ " refused first") true (!submissions > 1);
      check_int (name ^ " fifth write landed") 0xCAFE
        (Soc.Memory.peek32 h.slow ~addr:(slow_base + 0x100)))
    all_levels

(* An unmapped address answers [Failed], and the bus is idle after. *)
let test_transact_unmapped () =
  List.iter
    (fun level ->
      let name = level_name level in
      let h = build level in
      check_bool (name ^ " failed") true
        (Ec.Port.transact ~kernel:h.kernel h.port (read 0x8000) = Ec.Port.Failed);
      check_bool (name ^ " idle after") false (Iface.busy h.iface))
    all_levels

(* A port that never finishes: [transact] gives up after 100 000 cycles
   with [Failure].  The kernel has no processes, so the cycles are
   cheap. *)
let test_transact_deadline () =
  let kernel = Sim.Kernel.create () in
  let port =
    {
      Ec.Port.try_submit = (fun _ -> true);
      poll = (fun _ -> Ec.Port.Pending);
      retire = ignore;
    }
  in
  check_bool "raises Failure" true
    (match Ec.Port.transact ~kernel port (read fast_base) with
    | _ -> false
    | exception Failure _ -> true);
  check_int "after 100 000 cycles" 100_000 (Sim.Kernel.now kernel)

let suite =
  [
    Alcotest.test_case "isolated latencies match timing rules" `Quick
      test_isolated_latencies;
    Alcotest.test_case "back-to-back throughput" `Quick test_back_to_back_throughput;
    Alcotest.test_case "read/write overlap by level" `Quick test_read_write_overlap;
    Alcotest.test_case "data integrity" `Quick test_data_integrity;
    Alcotest.test_case "burst data integrity" `Quick test_burst_data_integrity;
    Alcotest.test_case "bus errors" `Quick test_bus_errors;
    Alcotest.test_case "execute rights" `Quick test_execute_rights;
    Alcotest.test_case "outstanding limit" `Quick test_outstanding_limit;
    Alcotest.test_case "busy clears" `Quick test_busy_clears;
    Alcotest.test_case "pipelining gain" `Quick test_pipelining_gain;
    Alcotest.test_case "l1 queue structure" `Quick test_l1_queue_depths;
    Alcotest.test_case "rtl strobe wires" `Quick test_rtl_strobes;
    Alcotest.test_case "rtl wdata during waits" `Quick test_rtl_wdata_during_waits;
    Alcotest.test_case "rtl idle cycle allocates nothing" `Quick
      (idle_cycle_allocates_nothing Core.Level.Rtl);
    Alcotest.test_case "l1 idle cycle allocates nothing" `Quick
      (idle_cycle_allocates_nothing Core.Level.L1);
    Alcotest.test_case "l2 idle cycle allocates nothing" `Quick
      (idle_cycle_allocates_nothing Core.Level.L2);
    Alcotest.test_case "port transact retries a refused submission" `Quick
      test_transact_retries;
    Alcotest.test_case "port transact fails on an unmapped address" `Quick
      test_transact_unmapped;
    Alcotest.test_case "port transact gives up after 100 000 cycles" `Quick
      test_transact_deadline;
    Alcotest.test_case "rtl and l1 warm replays allocate the same" `Quick
      test_cycle_accurate_alloc_equal;
  ]
