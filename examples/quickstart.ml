(* Quickstart: build the Figure-1 smart card, run a small program on the
   energy-aware layer-1 bus, and inspect timing, energy and the per-cycle
   power profile.

   Run with:  dune exec examples/quickstart.exe *)

let program_source =
  (* Sum a small table from ROM into RAM and poke the result at the UART. *)
  "        la   r1, table\n\
  \        li   r2, 1048576      # RAM base\n\
  \        addi r3, r0, 8        # eight words\n\
  \        add  r4, r0, r0\n\
   loop:   lw   r5, 0(r1)\n\
  \        add  r4, r4, r5\n\
  \        addi r1, r1, 4\n\
  \        addi r3, r3, -1\n\
  \        bne  r3, r0, loop\n\
  \        sw   r4, 0(r2)\n\
  \        li   r6, 15728640     # UART base\n\
  \        sb   r4, 0(r6)\n\
  \        halt\n\
   table:  .word 1\n\
  \        .word 2\n\
  \        .word 3\n\
  \        .word 4\n\
  \        .word 5\n\
  \        .word 6\n\
  \        .word 7\n\
  \        .word 8\n"

let () =
  print_endline "== 1. Assemble the program ==";
  let program = Soc.Asm.assemble program_source in
  Printf.printf "%d words of code+data at %#x\n\n" (Array.length program.Soc.Asm.words)
    program.Soc.Asm.origin;

  print_endline "== 2. Run it at every abstraction level ==";
  let outcomes =
    List.map
      (fun level ->
        let run = Core.Runner.run_program ~level ~record_profile:true program in
        (level, run))
      Core.Level.timed
  in
  List.iter
    (fun (level, run) ->
      let r = run.Core.Runner.result in
      Printf.printf "%-12s  cycles=%-5d  bus=%8.1f pJ  peripherals=%8.1f pJ\n"
        (Core.Level.to_string level) r.Core.Runner.cycles r.Core.Runner.bus_pj
        r.Core.Runner.component_pj)
    outcomes;
  print_newline ();

  print_endline "== 3. Check the architectural result ==";
  let _, l1_run = List.nth outcomes 1 in
  let ram = Soc.Platform.ram (Core.System.platform l1_run.Core.Runner.system) in
  Printf.printf "sum stored in RAM: %d (expected 36)\n\n"
    (Soc.Memory.peek32 ram ~addr:Soc.Platform.Map.ram_base);

  print_endline "== 4. Cycle-accurate power profile (layer 1) ==";
  (match l1_run.Core.Runner.result.Core.Runner.profile with
  | Some profile ->
    Printf.printf "peak %.2f pJ/cycle over %d cycles\n"
      (Power.Profile.max_value profile)
      (Power.Profile.length profile);
    Printf.printf "[%s]\n\n" (Power.Profile.sparkline ~width:72 profile)
  | None -> ());

  print_endline "== 5. The paper's power interface ==";
  let system = Core.System.create ~level:Core.Level.L1 () in
  let kernel = Core.System.kernel system in
  let port = Core.System.port system in
  let ids = Ec.Txn.Id_gen.create () in
  (* [Ec.Port.transact] blocks until the bus answers ok or error. *)
  let submit_and_wait txn = ignore (Ec.Port.transact ~kernel port txn) in
  submit_and_wait
    (Ec.Txn.single_write ~id:(Ec.Txn.Id_gen.fresh ids) Soc.Platform.Map.ram_base
       ~value:0xDEADBEEF);
  Printf.printf "energy since last call after one write: %.2f pJ\n"
    (Core.System.energy_since_last_call_pj system);
  submit_and_wait
    (Ec.Txn.burst_read ~id:(Ec.Txn.Id_gen.fresh ids) Soc.Platform.Map.rom_base);
  Printf.printf "energy since last call after one burst read: %.2f pJ\n"
    (Core.System.energy_since_last_call_pj system)
