(* The paper's verification methodology (section 4.1): run an assembly
   test program on the register-transfer model, trace its bus
   transactions, replay the trace into the transaction-level models and
   compare cycles and energy.

   Run with:  dune exec examples/trace_replay.exe *)

let () =
  print_endline "== 1. Assemble the bus-exercise test program ==";
  let program = Soc.Asm.assemble Core.Test_programs.bus_exercise in
  Printf.printf "%d words\n\n" (Array.length program.Soc.Asm.words);

  print_endline "== 2. Run it live on the gate-level model, tracing the bus ==";
  let live = Core.Runner.run_program ~level:Core.Level.Rtl program in
  let trace = Core.Runner.capture_cpu_trace program in
  Printf.printf "live run: %d instructions, %d cycles, %.1f pJ\n"
    live.Core.Runner.instructions live.Core.Runner.result.Core.Runner.cycles
    live.Core.Runner.result.Core.Runner.bus_pj;
  Printf.printf "captured trace: %d transactions, %d beats\n\n"
    (Ec.Trace.total_txns trace) (Ec.Trace.total_beats trace);

  print_endline "== 3. A few trace lines (the stimulus format) ==";
  List.iteri
    (fun i line -> if i < 6 then Printf.printf "   %s\n" line)
    (Ec.Trace.to_lines trace);
  Printf.printf "   ... (%d more)\n\n" (max 0 (Ec.Trace.total_txns trace - 6));

  print_endline "== 4. Characterize the energy table from a training run ==";
  let table = Core.Runner.characterize () in
  Format.printf "%a@.@." Power.Characterization.pp table;

  print_endline "== 5. Replay the trace into every model ==";
  let init system =
    Core.Runner.fill_memories system;
    Soc.Platform.load_program (Core.System.platform system) program
  in
  let results =
    List.map
      (fun level -> Core.Runner.run_trace ~level ~table ~mode:`Pipelined ~init trace)
      Core.Level.timed
  in
  let reference = List.hd results in
  List.iter
    (fun (r : Core.Runner.result) ->
      Printf.printf "%-12s cycles=%-5d (%+5.1f%%)   energy=%8.1f pJ (%+5.1f%%)\n"
        (Core.Level.to_string r.Core.Runner.level) r.Core.Runner.cycles
        (float_of_int (r.Core.Runner.cycles - reference.Core.Runner.cycles)
        /. float_of_int reference.Core.Runner.cycles *. 100.0)
        r.Core.Runner.bus_pj
        (Power.Units.pct_error ~reference:reference.Core.Runner.bus_pj
           r.Core.Runner.bus_pj))
    results;
  print_newline ();

  print_endline "== 6. Save / reload the trace (file format) ==";
  let path = Filename.temp_file "smartcard" ".trace" in
  Ec.Trace.save path trace;
  let reloaded = Ec.Trace.load path in
  Printf.printf "round-tripped %d transactions through %s: %s\n"
    (Ec.Trace.total_txns reloaded) path
    (if
       List.for_all2
         (fun a b -> Ec.Txn.equal_payload a.Ec.Trace.txn b.Ec.Trace.txn)
         trace reloaded
     then "identical"
     else "MISMATCH");
  Sys.remove path
