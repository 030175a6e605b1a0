(* Command-line front end of the smart-card energy-estimation framework.

   Subcommands map to the paper's experiments and their extensions:
     tables        - Tables 1-3, Figure 6 and the adaptive mixed-level
                     comparison
     explore       - section 4.3 HW/SW interface exploration
     run           - assemble and run a program, report cycles and energy
     fabric        - multi-master contention study (arbiter x topology x level)
     trace         - capture or replay bus transaction traces
     characterize  - derive and print the per-signal energy table
     ablate        - sensitivity studies of the modelling choices
     coding        - bus coding study over a program's traffic
     cache         - instruction-cache size exploration
     disasm        - assemble and list a program
     serve         - run the simulation daemon on a socket
     client        - send requests to a running daemon *)

open Cmdliner

let level_conv =
  let parse = function
    | "rtl" | "gate" | "gate-level" -> Ok Core.Level.Rtl
    | "l1" | "tl1" | "layer1" -> Ok Core.Level.L1
    | "l2" | "tl2" | "layer2" -> Ok Core.Level.L2
    | "l3" | "tl3" | "layer3" -> Ok Core.Level.L3
    | s -> Error (`Msg (Printf.sprintf "unknown level %S (rtl|l1|l2|l3)" s))
  in
  let print ppf l = Format.pp_print_string ppf (Core.Level.to_string l) in
  Arg.conv (parse, print)

(* Counts and sizes: zero or a negative value is a usage error that
   names the flag, not a crash deep in the run. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let level_arg =
  Arg.(
    value
    & opt level_conv Core.Level.L1
    & info [ "l"; "level" ] ~docv:"LEVEL"
        ~doc:
          "Abstraction level: rtl (gate-level reference), l1, l2 or l3 \
           (bridged layer 3).")

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (* Read to EOF rather than seeking, so pipes work too. *)
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec loop () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        end
      in
      loop ();
      Buffer.contents buf)

(* --- observability options shared by run and trace replay --- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE.json"
        ~doc:
          "Write the run as Chrome trace-event JSON to $(docv) (open in \
           Perfetto or chrome://tracing).  The per-cycle energy profile is \
           written next to it as FILE.energy.jsonl.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print simulator metrics (counters and histograms) after the run.")

(* Track names for the Chrome export.  A default platform always maps
   the same slaves in the same decoder order, so a throwaway platform is
   the cheapest authoritative source. *)
let platform_slave_names () =
  let kernel = Sim.Kernel.create () in
  let platform = Soc.Platform.create ~kernel () in
  Array.of_list
    (List.map
       (fun (s : Ec.Slave.t) -> s.Ec.Slave.cfg.Ec.Slave_cfg.name)
       (Ec.Decoder.slaves (Soc.Platform.decoder platform)))

let make_sink ~trace_out ~metrics =
  if trace_out <> None || metrics then Some (Obs.Sink.create ()) else None

let energy_jsonl_path path = Filename.remove_extension path ^ ".energy.jsonl"

let write_lines path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let finish_obs ?profile ~trace_out ~metrics sink =
  match sink with
  | None -> ()
  | Some s ->
    (match trace_out with
    | None -> ()
    | Some path ->
      Obs.Chrome.write ?profile ~slave_names:(platform_slave_names ()) ~path s;
      let dropped = Obs.Sink.dropped s in
      Printf.printf "chrome trace written to %s (%d events%s)\n" path
        (Obs.Sink.length s)
        (if dropped = 0 then "" else Printf.sprintf ", %d dropped" dropped);
      (match profile with
      | None -> ()
      | Some p ->
        let jsonl = energy_jsonl_path path in
        write_lines jsonl (Power.Profile.to_jsonl_lines p);
        Printf.printf "energy profile written to %s (%d cycles)\n" jsonl
          (Power.Profile.length p)));
    if metrics then begin
      print_newline ();
      print_endline (Core.Report.metrics (Obs.Sink.metrics s))
    end

(* --- tables --- *)

let tables_cmd =
  let doc =
    "Regenerate the paper's Tables 1-3 and Figure 6, then the adaptive \
     mixed-level comparison."
  in
  let txns =
    Arg.(
      value & opt pos_int 20_000
      & info [ "txns" ] ~docv:"N" ~doc:"Transactions for the Table 3 measurement.")
  in
  let run txns =
    let rows = Core.Experiments.run_accuracy () in
    print_endline (Core.Experiments.render_table1 rows);
    print_newline ();
    print_endline (Core.Experiments.render_table2 rows);
    print_newline ();
    print_endline
      (Core.Experiments.render_table3 (Core.Experiments.run_performance ~txns ()));
    print_newline ();
    print_endline (Core.Experiments.render_figure6 (Core.Experiments.run_figure6 ()));
    print_newline ();
    print_endline
      (Core.Experiments.render_adaptive
         (Core.Experiments.run_adaptive_comparison ()))
  in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ txns)

(* --- explore --- *)

let explore_cmd =
  let doc = "HW/SW interface exploration of the Java Card VM (section 4.3)." in
  let applet =
    let names = List.map (fun a -> a.Jcvm.Applets.name) Jcvm.Applets.all in
    Arg.(
      value
      & opt (some (enum (List.combine names Jcvm.Applets.all))) None
      & info [ "applet" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Restrict to one applet (%s)."
               (String.concat ", " names)))
  in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Run every grid cell through the live adaptive engine instead of \
             one fixed level (--level is then ignored); rows grow spliced \
             provenance columns.")
  in
  let policy =
    Arg.(
      value
      & opt (some (enum [ ("auto", `Auto); ("l1", `L1); ("l2", `L2) ])) None
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Adaptive policy (implies --adaptive): auto is the exploration \
             preset (layer 2 base, refined to layer 1 for the first 512 \
             transactions, 192 of every 768 and after any window above 8 \
             pJ/cycle); l1/l2 are the policy with no triggers at that \
             level — the degenerate check that must reproduce the \
             fixed-level rows bit-for-bit.")
  in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Instead of one sweep, run pure layer 1, pure layer 2 and the \
             adaptive sweep back to back and print the wall-clock/energy \
             comparison table (EXPERIMENTS.md).")
  in
  let run level applet adaptive policy compare trace_out =
    let applets =
      match applet with None -> Jcvm.Applets.all | Some a -> [ a ]
    in
    let policy =
      if not (adaptive || policy <> None) then None
      else
        Some
          (match policy with
          | None | Some `Auto -> Hier.Policy.for_exploration ()
          | Some `L1 -> Hier.Policy.constant Hier.Level.L1
          | Some `L2 -> Hier.Policy.constant Hier.Level.L2)
    in
    if compare then
      print_endline
        (Core.Experiments.render_exploration_comparison
           (Core.Experiments.run_exploration_comparison ~applets ?policy ()))
    else
      let rows =
        match trace_out with
        | None -> (
          match policy with
          | None -> Core.Exploration.run ~level ~applets ()
          | Some policy -> Core.Exploration.run ~policy ~applets ())
        | Some stem ->
          (* Per-row Chrome traces: give each grid cell its own sink and
             write <stem>-<applet>-<config>.json, so one row's window
             lifecycle can be inspected in Perfetto in isolation.  The
             cells share one pool, as the sweep's do: a sink is a run
             input, so traced adaptive cells reuse their sessions. *)
          let stem = Filename.remove_extension stem in
          let slave_names = platform_slave_names () in
          let pool = Core.Pool.create () in
          List.concat_map
            (fun applet ->
              List.map
                (fun config ->
                  let sink = Obs.Sink.create () in
                  let row =
                    match policy with
                    | None ->
                      Core.Exploration.run_one ~level ~sink ~pool ~config
                        applet
                    | Some policy ->
                      Core.Exploration.run_one ~policy ~sink ~pool ~config
                        applet
                  in
                  let path =
                    Printf.sprintf "%s-%s-%s.json" stem
                      applet.Jcvm.Applets.name config.Jcvm.Configs.name
                  in
                  Obs.Chrome.write ~slave_names ~path sink;
                  Printf.printf "chrome trace written to %s (%d events)\n"
                    path (Obs.Sink.length sink);
                  row)
                Jcvm.Configs.standard)
            applets
      in
      print_endline (Core.Exploration.render rows)
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ level_arg $ applet $ adaptive $ policy $ compare
      $ trace_out_arg)

(* --- run --- *)

let arbiter_conv =
  let parse s =
    match Ec.Arbiter.policy_of_string s with
    | Some p -> Ok p
    | None ->
      Error (`Msg (Printf.sprintf "unknown arbiter %S (fixed|rr|wrr:w0,w1,..)" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Ec.Arbiter.policy_to_string p))

let topology_conv =
  let parse s =
    match Core.Contention.topology_of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown topology %S (single|bridged)" s))
  in
  Arg.conv
    (parse, fun fmt t -> Format.pp_print_string fmt (Core.Contention.topology_to_string t))

let masters_conv =
  let parse s =
    match Core.Contention.kind_of_string s with
    | Some Core.Contention.Cpu | None ->
      Error (`Msg (Printf.sprintf "unknown master %S (dma|crypto)" s))
    | Some k -> Ok k
  in
  Arg.conv
    (parse, fun fmt k -> Format.pp_print_string fmt (Core.Contention.kind_to_string k))

let render_contention (r : Core.Contention.result) =
  Printf.printf "fabric:       %s arbiter, %s topology\n"
    (Ec.Arbiter.policy_to_string r.Core.Contention.policy)
    (Core.Contention.topology_to_string r.Core.Contention.topology);
  Printf.printf "cycles:       %d\n" r.Core.Contention.cycles;
  Printf.printf "fabric energy: %.1f pJ (bus models report %.1f; bridge %.1f over %d crossings)\n"
    r.Core.Contention.fabric_pj r.Core.Contention.bus_pj
    r.Core.Contention.bridge_pj r.Core.Contention.crossings;
  let body =
    List.map
      (fun (row : Core.Contention.master_row) ->
        [
          Core.Contention.kind_to_string row.Core.Contention.kind;
          string_of_int row.Core.Contention.txns;
          string_of_int row.Core.Contention.beats;
          string_of_int row.Core.Contention.errors;
          string_of_int row.Core.Contention.grants;
          Printf.sprintf "%.1f" row.Core.Contention.energy_pj;
          (if r.Core.Contention.fabric_pj > 0.0 then
             Printf.sprintf "%.1f%%"
               (100.0 *. row.Core.Contention.energy_pj
               /. r.Core.Contention.fabric_pj)
           else "-");
        ])
      r.Core.Contention.rows
  in
  print_endline
    (Core.Report.table
       ~header:[ "Master"; "Txns"; "Beats"; "Errors"; "Grants"; "pJ"; "Share" ]
       body)

let pp_fault = function
  | Soc.Cpu.Bus_error addr -> Printf.sprintf "bus error at %#x" addr
  | Soc.Cpu.Misaligned addr -> Printf.sprintf "misaligned access at %#x" addr
  | Soc.Cpu.Illegal_instruction w -> Printf.sprintf "illegal instruction %#010x" w

let run_cmd =
  let doc = "Assemble a program, run it on the simulated card, report stats." in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s")
  in
  let profile =
    Arg.(
      value & opt (some string) None
      & info [ "profile" ] ~docv:"CSV"
          ~doc:"Write the per-cycle bus energy profile to $(docv).")
  in
  let vcd =
    Arg.(
      value & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE"
          ~doc:"Write a VCD waveform of the run (gate-level only).")
  in
  let masters_arg =
    Arg.(
      value & opt (list masters_conv) []
      & info [ "masters" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated extra bus masters (dma, crypto) contending \
             with the program's traffic through the arbitrated fabric. \
             The program's captured bus trace drives master 0 (the CPU). \
             Cannot be combined with --vcd, --profile, --trace-out or \
             --metrics.")
  in
  let arbiter_arg =
    Arg.(
      value & opt arbiter_conv Ec.Arbiter.Round_robin
      & info [ "arbiter" ] ~docv:"POLICY"
          ~doc:"Fabric arbitration policy: fixed, rr or wrr:w0,w1,...")
  in
  let topology_arg =
    Arg.(
      value
      & opt topology_conv Core.Contention.Single
      & info [ "topology" ] ~docv:"TOPO"
          ~doc:
            "Bus topology for --masters runs: single (one shared bus) or \
             bridged (DMA source behind a bridged far bus).")
  in
  (* One program is one run: it interprets a fresh session; only a
     sweep replays enough to pay for compiling a plan. *)
  let run_masters level file masters arbiter topology =
    let program = Soc.Asm.assemble (read_file file) in
    let cpu_trace = Core.Runner.capture_cpu_trace program in
    let extra =
      List.filter
        (fun (k, _) -> List.mem k masters)
        (Core.Contention.default_masters
           ~n:(max 64 (Ec.Trace.total_txns cpu_trace))
           topology)
    in
    Printf.printf "level:        %s (%d masters)\n"
      (Core.Level.to_string level) (List.length masters + 1);
    render_contention
      (Core.Contention.run ~level ~policy:arbiter ~topology
         ((Core.Contention.Cpu, cpu_trace) :: extra))
  in
  let run_single level file profile_out vcd_out trace_out metrics =
    let program = Soc.Asm.assemble (read_file file) in
    let record_profile = profile_out <> None || trace_out <> None in
    let sink = make_sink ~trace_out ~metrics in
    let result =
      Core.Runner.run_program ~level ~record_profile ?vcd:vcd_out ?sink program
    in
    let r = result.Core.Runner.result in
    Printf.printf "level:        %s\n" (Core.Level.to_string level);
    Printf.printf "instructions: %d\n" result.Core.Runner.instructions;
    Printf.printf "cycles:       %d (CPI %.2f)\n" r.Core.Runner.cycles
      (float_of_int r.Core.Runner.cycles
      /. float_of_int (max 1 result.Core.Runner.instructions));
    Printf.printf "bus txns:     %d (%d beats)\n" r.Core.Runner.txns
      r.Core.Runner.beats;
    Printf.printf "bus energy:   %.1f pJ\n" r.Core.Runner.bus_pj;
    Printf.printf "peripherals:  %.1f pJ\n" r.Core.Runner.component_pj;
    (match result.Core.Runner.fault with
    | None -> Printf.printf "halted normally\n"
    | Some f -> Printf.printf "FAULT: %s\n" (pp_fault f));
    let total_pj = r.Core.Runner.bus_pj +. r.Core.Runner.component_pj in
    List.iter
      (fun limit ->
        Format.printf "budget:       %a@."
          Power.Budget.pp_verdict
          (Power.Budget.check limit ~energy_pj:total_pj
             ~cycles:r.Core.Runner.cycles))
      [ Power.Budget.gsm_contact; Power.Budget.contactless_rf ];
    if result.Core.Runner.uart_output <> "" then
      Printf.printf "uart: %S\n" result.Core.Runner.uart_output;
    (match profile_out, r.Core.Runner.profile with
    | Some path, Some p ->
      write_lines path (Power.Profile.to_csv_lines p);
      Printf.printf "profile written to %s (%d cycles)\n" path
        (Power.Profile.length p)
    | Some _, None | None, _ -> ());
    finish_obs ?profile:r.Core.Runner.profile ~trace_out ~metrics sink
  in
  let run level file profile_out vcd_out trace_out metrics masters arbiter
      topology =
    if masters = [] then
      `Ok (run_single level file profile_out vcd_out trace_out metrics)
    else
      (* A contention run writes no waveform, profile, trace or metrics:
         asking for one is a usage error, not a silently missing file. *)
      match
        List.find_opt fst
          [ (vcd_out <> None, "--vcd"); (profile_out <> None, "--profile");
            (trace_out <> None, "--trace-out"); (metrics, "--metrics") ]
      with
      | Some (_, flag) ->
        `Error
          (true, Printf.sprintf "option '%s' cannot be used with --masters" flag)
      | None -> `Ok (run_masters level file masters arbiter topology)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ level_arg $ file $ profile $ vcd $ trace_out_arg
       $ metrics_arg $ masters_arg $ arbiter_arg $ topology_arg))

(* --- fabric --- *)

let fabric_cmd =
  let doc =
    "Run the multi-master contention study: arbiter policy x topology x \
     level over the standard CPU/DMA/crypto stimulus."
  in
  let n =
    Arg.(
      value & opt pos_int 512
      & info [ "n" ] ~docv:"N"
          ~doc:"Stimulus size: CPU transactions / DMA words (default 512).")
  in
  let level_opt =
    Arg.(
      value & opt (some level_conv) None
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Restrict the study to one abstraction level.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object per grid cell, one per line, with \
             per-master energy buckets, instead of the rendered table.")
  in
  let domains_opt =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:"Domains to map the grid across (default: all cores).")
  in
  let level_wire = function
    | Core.Level.Rtl -> "rtl"
    | Core.Level.L1 -> "l1"
    | Core.Level.L2 -> "l2"
    | Core.Level.L3 -> "l3"
  in
  let cell_json (r : Core.Contention.result) =
    let module J = Obs.Json in
    J.Obj
      [
        ("group", J.String "fabric/contention");
        ( "name",
          J.String
            (Printf.sprintf "%s/%s/%s"
               (level_wire r.Core.Contention.level)
               (Ec.Arbiter.policy_to_string r.Core.Contention.policy)
               (Core.Contention.topology_to_string r.Core.Contention.topology))
        );
        ("level", J.String (level_wire r.Core.Contention.level));
        ( "policy",
          J.String (Ec.Arbiter.policy_to_string r.Core.Contention.policy) );
        ( "topology",
          J.String
            (Core.Contention.topology_to_string r.Core.Contention.topology) );
        ("cycles", J.Int r.Core.Contention.cycles);
        ("crossings", J.Int r.Core.Contention.crossings);
        ("fabric_pj", J.Float r.Core.Contention.fabric_pj);
        ("bus_pj", J.Float r.Core.Contention.bus_pj);
        ("bridge_pj", J.Float r.Core.Contention.bridge_pj);
        ("wall_seconds", J.Float r.Core.Contention.wall_seconds);
        ( "masters",
          J.List
            (List.map
               (fun (m : Core.Contention.master_row) ->
                 J.Obj
                   [
                     ( "kind",
                       J.String (Core.Contention.kind_to_string
                                   m.Core.Contention.kind) );
                     ("txns", J.Int m.Core.Contention.txns);
                     ("beats", J.Int m.Core.Contention.beats);
                     ("errors", J.Int m.Core.Contention.errors);
                     ("grants", J.Int m.Core.Contention.grants);
                     ("energy_pj", J.Float m.Core.Contention.energy_pj);
                   ])
               r.Core.Contention.rows) );
      ]
  in
  let run n level json domains =
    let levels =
      match level with Some l -> [ l ] | None -> Core.Level.timed
    in
    (* One sweep: each cell runs once, so nothing is worth keeping. *)
    let results = Core.Contention.study ~n ~levels ?domains () in
    if json then
      List.iter
        (fun r -> print_endline (Obs.Json.to_string (cell_json r)))
        results
    else print_endline (Core.Contention.render_study results)
  in
  Cmd.v (Cmd.info "fabric" ~doc)
    Term.(const run $ n $ level_opt $ json_flag $ domains_opt)

(* --- trace --- *)

let trace_capture_cmd =
  let doc = "Run a program on the gate-level model and record its bus trace." in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s") in
  let out =
    Arg.(value & opt string "trace.txt" & info [ "o" ] ~docv:"OUT" ~doc:"Output file.")
  in
  let run file out =
    let program = Soc.Asm.assemble (read_file file) in
    let trace = Core.Runner.capture_cpu_trace program in
    Ec.Trace.save out trace;
    Printf.printf "captured %d transactions (%d beats) to %s\n"
      (Ec.Trace.total_txns trace) (Ec.Trace.total_beats trace) out
  in
  Cmd.v (Cmd.info "capture" ~doc) Term.(const run $ file $ out)

let trace_replay_cmd =
  let doc = "Replay a recorded trace through a bus model." in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  let serial =
    Arg.(value & flag & info [ "serial" ] ~doc:"Wait for each transaction.")
  in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Replay through the adaptive mixed-level engine (the default \
             policy of the experiments) instead of a single level; \
             --level is ignored.")
  in
  let run level file serial adaptive trace_out metrics =
    let trace =
      try Ec.Trace.load file
      with Failure msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1
    in
    let mode = if serial then `Serial else `Pipelined in
    let sink = make_sink ~trace_out ~metrics in
    let record_profile = trace_out <> None in
    if adaptive then begin
      let r =
        Core.Runner.run_adaptive ~mode ~record_profile
          ~init:Core.Runner.fill_memories ?sink
          ~policy:Core.Experiments.adaptive_policy trace
      in
      Printf.printf "adaptive mixed-level replay (%d windows, %d switches)\n"
        (List.length r.Core.Runner.splice.Hier.Splice.windows)
        r.Core.Runner.switches;
      Printf.printf "txns:       %d (%d errors)\n" r.Core.Runner.txns
        r.Core.Runner.errors;
      Printf.printf "cycles:     %d\n" r.Core.Runner.cycles;
      Printf.printf "bus energy: %.1f pJ\n" r.Core.Runner.bus_pj;
      let profile =
        if record_profile then Some (Hier.Splice.profile r.Core.Runner.splice)
        else None
      in
      finish_obs ?profile ~trace_out ~metrics sink
    end
    else begin
      let r =
        Core.Runner.run_trace ~level ~mode ~record_profile
          ~init:Core.Runner.fill_memories ?sink trace
      in
      Printf.printf "level:      %s\n" (Core.Level.to_string level);
      Printf.printf "txns:       %d (%d errors)\n" r.Core.Runner.txns
        r.Core.Runner.errors;
      Printf.printf "cycles:     %d\n" r.Core.Runner.cycles;
      Printf.printf "bus energy: %.1f pJ\n" r.Core.Runner.bus_pj;
      finish_obs ?profile:r.Core.Runner.profile ~trace_out ~metrics sink
    end
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const run $ level_arg $ file $ serial $ adaptive $ trace_out_arg
      $ metrics_arg)

let trace_cmd =
  let doc = "Capture or replay bus transaction traces." in
  Cmd.group (Cmd.info "trace" ~doc) [ trace_capture_cmd; trace_replay_cmd ]

(* --- cache --- *)

let cache_cmd =
  let doc = "Instruction-cache size exploration over a program." in
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.s") in
  let run level file =
    let name, program =
      match file with
      | Some path -> (Filename.basename path, Soc.Asm.assemble (read_file path))
      | None ->
        ("bubble-sort", Soc.Asm.assemble (Core.Test_programs.bubble_sort ~n:10))
    in
    print_endline (Core.Cache_study.render (Core.Cache_study.run ~level ~name program))
  in
  Cmd.v (Cmd.info "cache" ~doc) Term.(const run $ level_arg $ file)

(* --- coding --- *)

let coding_cmd =
  let doc = "Bus coding study (bus-invert, Gray) over a program's traffic." in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.s")
  in
  let run file =
    let study =
      match file with
      | Some path ->
        Core.Coding_study.run_program ~name:(Filename.basename path)
          (Soc.Asm.assemble (read_file path))
      | None ->
        Core.Coding_study.run_program ~name:"bus-exercise"
          (Soc.Asm.assemble Core.Test_programs.bus_exercise)
    in
    print_endline (Core.Coding_study.render study)
  in
  Cmd.v (Cmd.info "coding" ~doc) Term.(const run $ file)

(* --- ablate --- *)

let ablate_cmd =
  let doc = "Sensitivity studies of the modelling choices (slow)." in
  let run () = print_endline (Core.Ablations.run_all ()) in
  Cmd.v (Cmd.info "ablate" ~doc) Term.(const run $ const ())

(* --- characterize --- *)

let characterize_cmd =
  let doc =
    "Derive the per-signal energy characterization from the gate-level model."
  in
  let run () =
    let table = Core.Runner.characterize () in
    Format.printf "%a@." Power.Characterization.pp table;
    Format.printf "per-wire energy per transition [pJ]:@.";
    List.iter
      (fun id ->
        Format.printf "  %-12s %.4f@." (Ec.Signals.to_string id)
          (Power.Characterization.energy_per_transition table id))
      Ec.Signals.all
  in
  Cmd.v (Cmd.info "characterize" ~doc) Term.(const run $ const ())

(* --- disasm --- *)

let disasm_cmd =
  let doc = "Assemble a program and print the listing." in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s") in
  let run file =
    let program = Soc.Asm.assemble (read_file file) in
    List.iter print_endline
      (Soc.Asm.disassemble ~origin:program.Soc.Asm.origin program.Soc.Asm.words)
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ file)

(* --- serve / client --- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the simulation service.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Loopback TCP port of the simulation service (0 = ephemeral).")

let serve_cmd =
  let doc = "Run the simulation-service daemon (DESIGN.md section 15)." in
  let domains =
    Arg.(
      value
      & opt pos_int (Core.Parallel.default_domains ())
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains draining the job queue (default: CPU count).")
  in
  let queue_depth =
    Arg.(
      value
      & opt pos_int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Bound on the job queue; a push beyond it is rejected with a \
             busy frame carrying retry_after_ms.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE.json"
          ~doc:
            "After the daemon drains, write its whole telemetry timeline \
             (worker lanes, request slices, queue-depth counter) as Chrome \
             trace-event JSON to $(docv).")
  in
  let run socket port domains queue_depth trace_out =
    (* No endpoint given: serve on a conventional local socket path. *)
    let unix_path, tcp_port =
      match (socket, port) with
      | None, None -> (Some "smartcard.sock", None)
      | s, p -> (s, p)
    in
    let server =
      Serve.Server.create ?unix_path ?tcp_port ~domains ~queue_depth
        ~handle_signals:true ()
    in
    Option.iter (Printf.printf "serving on unix socket %s\n%!") unix_path;
    (match Serve.Server.tcp_port server with
    | Some p -> Printf.printf "serving on tcp 127.0.0.1:%d\n%!" p
    | None -> ());
    Printf.printf "%d worker domain(s), queue depth %d; SIGINT drains\n%!"
      domains queue_depth;
    Serve.Server.serve server;
    print_endline "drained; all jobs finished";
    match trace_out with
    | None -> ()
    | Some path ->
      let telemetry = Serve.Server.telemetry server in
      Serve.Telemetry.write_chrome ~path telemetry;
      Printf.printf "chrome trace written to %s (%d spans, %d dropped)\n" path
        (Serve.Telemetry.spans_total telemetry)
        (Serve.Telemetry.spans_dropped telemetry)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ port_arg $ domains $ queue_depth $ trace_out)

let workload_conv =
  let parse s =
    let bad () =
      Error
        (`Msg
           (Printf.sprintf
              "unknown workload %S (table3[:N]|mixed[:N]|characterization|trace:FILE)"
              s))
    in
    match String.split_on_char ':' s with
    | [ "table3" ] -> Ok (Serve.Protocol.Table3 64)
    | [ "table3"; n ] -> (
      match int_of_string_opt n with
      | Some n -> Ok (Serve.Protocol.Table3 n)
      | None -> bad ())
    | [ "mixed" ] -> Ok (Serve.Protocol.Mixed_phase 400)
    | [ "mixed"; n ] -> (
      match int_of_string_opt n with
      | Some n -> Ok (Serve.Protocol.Mixed_phase n)
      | None -> bad ())
    | [ "characterization" ] -> Ok Serve.Protocol.Characterization
    | "trace" :: rest when rest <> [] -> (
      let path = String.concat ":" rest in
      match read_file path with
      | text ->
        Ok
          (Serve.Protocol.Inline
             (String.split_on_char '\n' text
             |> List.filter (fun l -> String.trim l <> "")))
      | exception Sys_error msg -> Error (`Msg msg))
    | _ -> bad ()
  in
  let print ppf (w : Serve.Protocol.workload) =
    Format.pp_print_string ppf
      (match w with
      | Serve.Protocol.Table3 n -> Printf.sprintf "table3:%d" n
      | Serve.Protocol.Mixed_phase n -> Printf.sprintf "mixed:%d" n
      | Serve.Protocol.Characterization -> "characterization"
      | Serve.Protocol.Inline _ -> "trace:<inline>")
  in
  Arg.conv (parse, print)

(* Pretty rendering of response frames (the default; --raw keeps the
   faithful JSON-lines wire transcript).  Explore rows accumulate and
   print as one table when the stream terminates. *)

let render_result (r : Serve.Protocol.result_body) =
  let open Serve.Protocol in
  Printf.printf "level:       %s\n" (Core.Level.to_string r.level);
  Printf.printf "cycles:      %d\n" r.cycles;
  Printf.printf "bus txns:    %d (%d beats, %d errors)\n" r.txns r.beats
    r.errors;
  Printf.printf "bus energy:  %.1f pJ\n" r.bus_pj;
  Printf.printf "peripherals: %.1f pJ\n" r.component_pj;
  Printf.printf "wall time:   %.1f ms\n%!" (r.wall_seconds *. 1e3)

let render_rows rows =
  match List.rev rows with
  | [] -> ()
  | rows ->
    let cells (r : Serve.Protocol.row_body) =
      let open Serve.Protocol in
      [ r.applet; r.config;
        Core.Level.to_string r.row_level;
        string_of_int r.row_cycles;
        Printf.sprintf "%.1f" r.row_bus_pj;
        string_of_int r.transactions;
        (if r.correct then "ok" else "WRONG");
        (match r.switches with Some s -> string_of_int s | None -> "-") ]
    in
    print_endline
      (Core.Report.table
         ~header:
           [ "applet"; "config"; "level"; "cycles"; "bus pJ"; "txns";
             "check"; "switches" ]
         (List.map cells rows))

let render_stats (s : Serve.Protocol.stats_body) =
  let open Serve.Protocol in
  Printf.printf "queue:         %d/%d%s\n" s.queue_depth s.queue_capacity
    (if s.stats_draining then " (draining)" else "");
  Printf.printf "uptime:        %.1f s\n" s.uptime_s;
  Printf.printf
    "requests:      %d accepted, %d completed, %d failed, %d rejected\n"
    s.accepted s.completed s.failed s.rejected;
  Printf.printf "spans dropped: %d\n" s.spans_dropped;
  if s.workers <> [] then begin
    print_newline ();
    print_endline
      (Core.Report.table ~header:[ "worker"; "jobs" ]
         (List.map
            (fun (w : worker_stat) ->
              [ string_of_int w.worker; string_of_int w.jobs ])
            s.workers))
  end;
  print_newline ();
  print_endline s.rendered;
  flush stdout

let render_error (e : Serve.Protocol.error_body) =
  let open Serve.Protocol in
  Printf.eprintf "error [%s]: %s%s\n%!"
    (error_code_to_string e.code)
    e.message
    (match e.retry_after_ms with
    | Some ms -> Printf.sprintf " (retry after %d ms)" ms
    | None -> "")

let render_frame ~rows frame =
  let open Serve.Protocol in
  match frame with
  | Accepted depth -> Printf.printf "accepted (queue depth %d)\n%!" depth
  | Result r -> render_result r
  | Row (_, r) -> rows := r :: !rows
  | Point p ->
    Printf.printf "point %d: scale %g -> %.1f pJ (%d cycles, %d txns)\n%!"
      p.point_seq p.scale p.point_bus_pj p.point_cycles p.point_txns
  | Energy (seq, lines) ->
    Printf.printf "energy chunk %d (%d lines)\n%!" seq (List.length lines)
  | Stats_reply s -> render_stats s
  | Metrics_reply m -> print_endline m.metrics_rendered; flush stdout
  | Trace_chunk tc ->
    Printf.printf "trace chunk %d: %d events%s\n%!" tc.trace_seq
      (List.length tc.trace_events)
      (if tc.trace_missed = 0 then ""
       else Printf.sprintf " (%d spans missed)" tc.trace_missed)
  | Subscribed sb ->
    Printf.printf "subscribed: %s every %d ms\n%!"
      (String.concat "," (List.map stream_to_wire sb.sub_streams))
      sb.sub_interval_ms
  | Error e -> render_error e
  | Done d ->
    render_rows !rows;
    rows := [];
    Printf.printf "done: %d frames in %.2f ms (worker %d)\n%!" d.frames
      d.latency_ms d.done_worker

(* The watch loop behind [smartcard client watch]: subscribe, print
   stream frames as they arrive, and on Ctrl-C (or --count) unsubscribe
   so the connection ends aligned.  Trace chunks accumulate into one
   Chrome document when --trace-out is given. *)
let client_watch c ~raw ~interval_ms ~streams ~count ~trace_out =
  let streams =
    if trace_out <> None && not (List.mem `Trace streams) then
      streams @ [ `Trace ]
    else streams
  in
  Sys.catch_break true;
  let events = ref [] and n_events = ref 0 and missed = ref 0 in
  let seen = ref 0 in
  let status = ref 0 in
  (match Serve.Client.subscribe ~interval_ms c ~streams with
  | Error e ->
    prerr_endline e;
    status := 1
  | Ok _id ->
    (try
       while match count with None -> true | Some n -> !seen < n do
         match Serve.Client.read_frame c with
         | Error e ->
           prerr_endline e;
           status := 1;
           raise Exit
         | Ok doc -> (
           if raw then print_endline (Obs.Json.to_string doc);
           match Serve.Protocol.frame_of_json doc with
           | Ok (_, Serve.Protocol.Metrics_reply m) ->
             incr seen;
             if not raw then
               Printf.printf "--- metrics snapshot %d ---\n%s\n%!"
                 m.Serve.Protocol.metrics_seq
                 m.Serve.Protocol.metrics_rendered
           | Ok (_, Serve.Protocol.Trace_chunk tc) ->
             incr seen;
             let n = List.length tc.Serve.Protocol.trace_events in
             events := List.rev_append tc.Serve.Protocol.trace_events !events;
             n_events := !n_events + n;
             missed := !missed + tc.Serve.Protocol.trace_missed;
             if not raw then
               Printf.printf "trace chunk %d: %d events%s\n%!"
                 tc.Serve.Protocol.trace_seq n
                 (if tc.Serve.Protocol.trace_missed = 0 then ""
                  else
                    Printf.sprintf " (%d spans missed)"
                      tc.Serve.Protocol.trace_missed)
           | Ok (_, Serve.Protocol.Energy (seq, lines)) ->
             incr seen;
             if not raw then
               Printf.printf "energy chunk %d (%d lines)\n%!" seq
                 (List.length lines)
           | Ok _ -> ()
           | Error e -> prerr_endline e)
       done
     with Sys.Break | Exit -> ());
    (* Best effort: a daemon that already went away is not an error. *)
    (match
       try Serve.Client.unsubscribe c
       with Sys.Break | Unix.Unix_error _ -> Ok ()
     with
    | Ok () | Error _ -> ()));
  (match trace_out with
  | None -> ()
  | Some path ->
    let doc =
      Obs.Json.Obj [ ("traceEvents", Obs.Json.List (List.rev !events)) ]
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Obs.Json.to_string doc);
        output_char oc '\n');
    Printf.printf "chrome trace written to %s (%d events%s)\n" path !n_events
      (if !missed = 0 then ""
       else Printf.sprintf ", %d spans missed" !missed));
  !status

let client_cmd =
  let doc =
    "Send one request to a running daemon and print the response, or watch \
     its live telemetry streams."
  in
  let kind =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("run", `Run); ("explore", `Explore); ("replay", `Replay);
                  ("stats", `Stats); ("metrics", `Metrics);
                  ("watch", `Watch); ("shutdown", `Shutdown) ]))
          None
      & info [] ~docv:"REQUEST"
          ~doc:"run|explore|replay|stats|metrics|watch|shutdown")
  in
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with --port).")
  in
  let workload =
    Arg.(
      value
      & opt workload_conv (Serve.Protocol.Table3 64)
      & info [ "workload" ] ~docv:"SPEC"
          ~doc:
            "Workload of a run/replay request: table3[:N], mixed[:N], \
             characterization, or trace:FILE (ships the recorded trace \
             inline).")
  in
  let serial =
    Arg.(value & flag & info [ "serial" ] ~doc:"Wait for each transaction.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Stream the per-cycle energy profile (run requests).")
  in
  let scales =
    Arg.(
      value
      & opt (list float) [ 1.0 ]
      & info [ "scales" ] ~docv:"S1,S2,.."
          ~doc:"Characterization scale factors of a replay request.")
  in
  let applets =
    Arg.(
      value
      & opt (list string) []
      & info [ "applets" ] ~docv:"NAMES"
          ~doc:"Applet names of an explore request (default: all).")
  in
  let configs =
    Arg.(
      value
      & opt (list string) []
      & info [ "configs" ] ~docv:"NAMES"
          ~doc:"Config names of an explore request (default: standard grid).")
  in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:"Explore through the live adaptive engine (--level ignored).")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Print every response frame as one JSON line (the faithful wire \
             transcript) instead of rendered tables.")
  in
  let interval =
    Arg.(
      value & opt int 500
      & info [ "interval" ] ~docv:"MS"
          ~doc:"Snapshot cadence of a watch subscription (10..60000 ms).")
  in
  let streams =
    Arg.(
      value
      & opt
          (list
             (enum
                [ ("metrics", `Metrics); ("trace", `Trace);
                  ("energy", `Energy) ]))
          [ `Metrics ]
      & info [ "streams" ] ~docv:"S1,S2,.."
          ~doc:"Streams of a watch subscription: metrics, trace, energy.")
  in
  let count =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop watching after $(docv) stream frames (default: Ctrl-C).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE.json"
          ~doc:
            "Accumulate watched trace chunks and write them as one Chrome \
             trace-event document on exit (implies the trace stream).")
  in
  let run kind socket host port level workload serial profile scales applets
      configs adaptive raw interval_ms streams count trace_out =
    let endpoint =
      match (socket, port) with
      | Some path, _ -> `Unix path
      | None, Some port -> `Tcp (host, port)
      | None, None -> `Unix "smartcard.sock"
    in
    let c =
      let fail reason =
        Printf.eprintf "cannot connect to %s: %s\n%!"
          (match endpoint with
          | `Unix path -> path
          | `Tcp (host, port) -> Printf.sprintf "%s:%d" host port)
          reason;
        exit 1
      in
      try Serve.Client.connect endpoint with
      | Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
      | Not_found -> fail "unknown host"
    in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        match kind with
        | `Watch ->
          (* Sys_error is a closed stdout (e.g. | head): not our error. *)
          exit
            (try client_watch c ~raw ~interval_ms ~streams ~count ~trace_out
             with Sys_error _ -> 0)
        | (`Run | `Explore | `Replay | `Stats | `Metrics | `Shutdown) as kind
          ->
          let mode = if serial then `Serial else `Pipelined in
          let request =
            match kind with
            | `Stats -> Serve.Protocol.Stats
            | `Metrics -> Serve.Protocol.Metrics
            | `Shutdown -> Serve.Protocol.Shutdown
            | `Run ->
              (* compiled: use a plan wherever the level has one. *)
              Serve.Protocol.Run
                { Serve.Protocol.workload; level; mode; estimate = true;
                  profile; compiled = true }
            | `Replay ->
              Serve.Protocol.Replay
                { Serve.Protocol.workload; level; mode; scales; fabric = None }
            | `Explore ->
              Serve.Protocol.Explore
                { Serve.Protocol.applets; configs; level; adaptive }
          in
          let _id = Serve.Client.send c request in
          let rows = ref [] in
          let rec loop () =
            match Serve.Client.read_frame c with
            | Error e ->
              prerr_endline e;
              1
            | Ok doc -> (
              if raw then print_endline (Obs.Json.to_string doc);
              match Serve.Protocol.frame_of_json doc with
              | Ok (_, frame) -> (
                if not raw then render_frame ~rows frame;
                match frame with
                | Serve.Protocol.Done _ -> 0
                | Serve.Protocol.Error _ -> 1
                | _ -> loop ())
              | Error e ->
                prerr_endline e;
                1)
          in
          (* Sys_error here is a closed stdout (e.g. | head): not our
             error. *)
          exit (try loop () with Sys_error _ -> 0))
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ kind $ socket_arg $ host $ port_arg $ level_arg $ workload
      $ serial $ profile $ scales $ applets $ configs $ adaptive $ raw
      $ interval $ streams $ count $ trace_out)

let () =
  let doc =
    "Hierarchical bus models with energy estimation for power-aware smart cards"
  in
  let info = Cmd.info "smartcard" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ tables_cmd; explore_cmd; run_cmd; fabric_cmd; trace_cmd;
            characterize_cmd; ablate_cmd; coding_cmd; cache_cmd; disasm_cmd;
            serve_cmd; client_cmd ]))
