(* Component accounting: idle cycles are derived from the kernel's slot
   edges and idle peripherals are parked, so the counts are checked
   against a ledger recorded from per-cycle ticking (see test/ledger),
   against the edge-count invariant on random peripheral traffic, and
   against the processes the kernel actually steps.  The gate-level wires
   are checked the same way: per-wire transitions and energies and a VCD
   dump against copies recorded from the per-signal wire objects they
   replaced, and the service's wire codec against a transcript recorded
   from the hand-written encoders and decoders it replaced, and the bus
   lifecycle events against a ledger recorded before the three bus models
   shared one master-interface module. *)

module Gen = QCheck.Gen

let check_int = Alcotest.(check int)

(* --- the recorded ledger --- *)

let recorded file =
  Test_data.read file
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.index_opt l '\t' with
         | Some i ->
           (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> Alcotest.failf "malformed ledger line %S" l)

let check_entries file actual =
  let expected = recorded file in
  check_int "entries" (List.length expected) (List.length actual);
  List.iter2
    (fun (ek, ev) (ak, av) ->
      Alcotest.(check string) "key" ek ak;
      Alcotest.(check string) ek ev av)
    expected actual

let test_ledger_matches () =
  check_entries "component_ledger.txt" (Ledger.entries ())

let test_wire_ledger_matches () =
  check_entries "wire_ledger.txt" (Wire_ledger.entries ())

let test_vcd_matches () =
  Alcotest.(check string) "vcd text"
    (Test_data.read "golden.vcd")
    (Wire_ledger.vcd_text ())

let test_event_ledger_matches () =
  let recorded = Test_data.read "event_ledger.txt" in
  Alcotest.(check string) "event ledger" recorded (Event_ledger.text ());
  (* A sink is a run input: the same runs on one shared pool, twice, so
     each traced run arms a session a traced run has used before. *)
  let pool = Core.Pool.create () in
  Alcotest.(check string) "event ledger, pooled" recorded
    (Event_ledger.text ~pool ());
  Alcotest.(check string) "event ledger, pooled again" recorded
    (Event_ledger.text ~pool ())

let test_protocol_transcript_matches () =
  Alcotest.(check string) "protocol transcript"
    (Test_data.read "protocol_golden.txt")
    (Protocol_transcript.text ())

(* --- active + idle = rising edges --- *)

module Map = Soc.Platform.Map

(* Register pokes that give the peripherals work (and take it away),
   mixed with RAM traffic. *)
let gen_item =
  let open Gen in
  let w addr value = Ec.Txn.single_write ~id:0 addr ~value in
  let r addr = Ec.Txn.single_read ~id:0 addr in
  let* txn =
    frequency
      [
        (3, map (fun v -> w (Map.ram_base + 0x40) v) (int_bound 0xFFFF));
        (2, return (r (Map.ram_base + 0x40)));
        (2, map (fun v -> w Map.uart_base v) (int_bound 0xFF));
        (1, map (fun b -> w (Map.uart_base + 0xC) b) (int_range 1 3));
        (2, map (fun e -> w (Map.timer_base + 0x8) e) (int_bound 3));
        (1, return (w Map.timer_base 0xFFF0));
        (1, map (fun e -> w (Map.timer_base + 0x18) e) (int_bound 1));
        (2, return (r Map.trng_base));
        (1, map (fun e -> w (Map.trng_base + 0x8) e) (int_bound 1));
        (2, return (w (Map.crypto_base + 0x8) 1));
        (1, return (w (Map.intc_base + 0x4) 0xFF));
        (1, return (w Map.intc_base 0xFF));
      ]
  in
  let* gap = int_bound 24 in
  return (Ec.Trace.item ~gap txn)

let arb_traffic =
  QCheck.make
    Gen.(
      triple
        (oneofl Core.Level.[ Rtl; L1; L2 ])
        (oneofl [ `Running; `Gated ])
        (list_size (int_range 1 40) gen_item))
    ~print:(fun (level, clock, trace) ->
      Printf.sprintf "%s %s\n%s" (Core.Level.to_string level)
        (match clock with `Running -> "running" | `Gated -> "gated")
        (String.concat "\n" (Ec.Trace.to_lines trace)))

(* Checked on every rising edge by a process registered after the
   platform and the master — so every component slot has passed the edge
   in progress, cycle [now] — and once more after the run.  A fresh
   kernel's edges are its cycles. *)
let prop_edges_split =
  QCheck.Test.make ~name:"active + idle = rising edges (0 when gated)"
    ~count:40 arb_traffic (fun (level, peripheral_clock, trace) ->
      let system = Core.System.create ~level ~peripheral_clock () in
      let kernel = Core.System.kernel system in
      let master =
        Soc.Trace_master.create ~kernel ~port:(Core.System.port system)
          ~mode:`Serial trace
      in
      let components = Soc.Platform.components (Core.System.platform system) in
      let split_ok ~edges =
        let edges =
          match peripheral_clock with `Running -> edges | `Gated -> 0
        in
        List.for_all
          (fun c ->
            Power.Component.idle_cycles c >= 0
            && Power.Component.active_cycles c + Power.Component.idle_cycles c
               = edges)
          components
      in
      let ok = ref true in
      Sim.Kernel.on_rising kernel ~name:"split-check" (fun _ ->
          let edges = Sim.Kernel.now kernel + 1 in
          if not (split_ok ~edges) then ok := false);
      ignore (Soc.Trace_master.run master ~kernel ~max_cycles:200_000 ());
      (* Let the peripherals drain their work, parked or not. *)
      Sim.Kernel.run kernel ~cycles:700;
      !ok && split_ok ~edges:(Sim.Kernel.now kernel))

(* --- what the kernel steps --- *)

let test_memory_trace_steps_two () =
  (* A memory-only replay: every peripheral stays parked and the
     memories have no process, so only the master and the bus run. *)
  List.iter
    (fun (level, bus) ->
      let system = ref None in
      let r =
        Core.Runner.run_trace ~level
          ~init:(fun s -> system := Some s)
          (Core.Workloads.table3_trace ~n:64)
      in
      let kernel =
        match !system with
        | Some s -> Core.System.kernel s
        | None -> Alcotest.fail "no system"
      in
      List.iter
        (fun (name, runs) ->
          let expected =
            if name = "trace-master" || name = bus then r.Core.Runner.cycles
            else 0
          in
          check_int (Core.Level.to_string level ^ " " ^ name) expected runs)
        (Sim.Kernel.runs kernel))
    Core.Level.[ (Rtl, "rtl-bus"); (L1, "tlm1-bus"); (L2, "tlm2-bus") ]

(* --- pooled adaptive runs --- *)

let strip (r : Core.Runner.adaptive_run) =
  ( r.Core.Runner.cycles, r.Core.Runner.txns, r.Core.Runner.beats,
    r.Core.Runner.errors, r.Core.Runner.bus_pj, r.Core.Runner.component_pj,
    r.Core.Runner.switches,
    List.map
      (fun (w : Hier.Splice.window) ->
        ( w.Hier.Splice.level, w.Hier.Splice.cycles, w.Hier.Splice.bus_pj,
          w.Hier.Splice.component_pj ))
      r.Core.Runner.splice.Hier.Splice.windows )

let test_pooled_adaptive_no_stacking () =
  (* Every call checks out the same pooled live materials, trace master
     included: [init] sees their kernel's processes as the call found
     them, so a later call must see no more than the first. *)
  let trace = Core.Workloads.mixed_phase_trace ~phase:64 ~n:512 () in
  let policy = Core.Experiments.adaptive_policy in
  let fresh = strip (Core.Runner.run_adaptive ~policy trace) in
  let pool = Core.Pool.create () in
  let seen = ref [] in
  let init s =
    seen := Sim.Kernel.process_names (Core.System.kernel s) :: !seen
  in
  for _ = 1 to 50 do
    let r = Core.Runner.run_adaptive ~init ~pool ~policy trace in
    Alcotest.(check bool) "pooled = fresh" true (strip r = fresh)
  done;
  match (!seen, List.rev !seen) with
  | last :: _, first :: _ ->
    Alcotest.(check (list string)) "no stacked masters" first last
  | _ -> Alcotest.fail "init never ran"

let suite =
  [
    Alcotest.test_case "component ledger = recorded per-cycle ledger" `Quick
      test_ledger_matches;
    QCheck_alcotest.to_alcotest prop_edges_split;
    Alcotest.test_case "memory-only replay steps master and bus only" `Quick
      test_memory_trace_steps_two;
    Alcotest.test_case "pooled adaptive reuses its masters" `Quick
      test_pooled_adaptive_no_stacking;
    Alcotest.test_case "wire ledger = recorded per-signal ledger" `Quick
      test_wire_ledger_matches;
    Alcotest.test_case "vcd dump = recorded golden dump" `Quick
      test_vcd_matches;
    Alcotest.test_case "protocol wire = recorded golden transcript" `Quick
      test_protocol_transcript_matches;
    Alcotest.test_case "bus lifecycle events = recorded event ledger" `Quick
      test_event_ledger_matches;
  ]
