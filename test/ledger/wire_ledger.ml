let hex f = Printf.sprintf "%h" f

let profile_digest = function
  | None -> "none"
  | Some p ->
    Power.Profile.to_array p |> Array.to_list |> List.map hex
    |> String.concat "," |> Digest.string |> Digest.to_hex

let traces () =
  ("table3", Core.Workloads.table3_trace ~n:2000)
  :: List.init 3 (fun i ->
         ( Printf.sprintf "random%d" (i + 1),
           Core.Workloads.random_trace ~rng:(Sim.Rng.create ~seed:(i + 1))
             ~n:3000 () ))

let modes = [ ("serial", `Serial); ("pipelined", `Pipelined) ]

let trace_run name mode_name mode trace =
  let bus = ref None in
  let init s =
    match Core.System.bus s with
    | Core.System.Rtl_bus b -> bus := Some b
    | _ -> ()
  in
  let r =
    Core.Runner.run_trace ~level:Core.Level.Rtl ~record_profile:true ~mode
      ~init trace
  in
  let d = Rtl.Bus.diesel (Option.get !bus) in
  let prefix = Printf.sprintf "trace/%s/%s" name mode_name in
  let transitions = Rtl.Diesel.per_signal_transitions d in
  let energy = Rtl.Diesel.per_signal_energy_pj d in
  ( prefix,
    Printf.sprintf "cycles=%d interface=%s internal=%s profile=%s"
      r.Core.Runner.cycles
      (hex (Rtl.Diesel.interface_pj d))
      (hex (Rtl.Diesel.internal_pj d))
      (profile_digest r.Core.Runner.profile) )
  :: List.init Ec.Signals.count (fun i ->
         ( Printf.sprintf "%s/%s" prefix
             (Ec.Signals.to_string (Ec.Signals.of_index i)),
           Printf.sprintf "transitions=%d pj=%s" transitions.(i)
             (hex energy.(i)) ))

let trace_runs () =
  List.concat_map
    (fun (name, trace) ->
      List.concat_map
        (fun (mode_name, mode) -> trace_run name mode_name mode trace)
        modes)
    (traces ())

(* The fabric attributes each meter cycle to its owner, so the per-master
   energies digest the gate-level per-cycle profile of a contended run. *)
let contention_run () =
  let r =
    Core.Contention.run ~level:Core.Level.Rtl
      (Core.Contention.default_masters ~n:96 Core.Contention.Single)
  in
  ( "contention/rtl",
    Printf.sprintf "cycles=%d fabric=%s bus=%s" r.Core.Contention.cycles
      (hex r.Core.Contention.fabric_pj)
      (hex r.Core.Contention.bus_pj) )
  :: List.mapi
       (fun i (row : Core.Contention.master_row) ->
         ( Printf.sprintf "contention/rtl/master%d" i,
           Printf.sprintf "txns=%d grants=%d pj=%s" row.Core.Contention.txns
             row.Core.Contention.grants
             (hex row.Core.Contention.energy_pj) ))
       r.Core.Contention.rows

let entries () = trace_runs () @ contention_run ()

let vcd_trace =
  let ram = Soc.Platform.Map.ram_base in
  [
    Ec.Trace.item (Ec.Txn.single_write ~id:0 ram ~value:0xCAFE_F00D);
    Ec.Trace.item ~gap:2 (Ec.Txn.single_read ~id:1 ram);
    Ec.Trace.item
      (Ec.Txn.burst_write ~id:2 (ram + 0x10)
         ~values:[| 0x1111_1111; 0x2222_2222; 0x4444_4444; 0x8888_8888 |]);
    Ec.Trace.item (Ec.Txn.burst_read ~id:3 (ram + 0x10));
    (* Unmapped: a bus error in the initiation cycle. *)
    Ec.Trace.item ~gap:1 (Ec.Txn.single_read ~id:4 0x0E0_0000);
  ]

let vcd_text () =
  let vcd = ref None in
  let init s =
    match Core.System.bus s with
    | Core.System.Rtl_bus b ->
      vcd :=
        Some
          (Rtl.Vcd.create ~kernel:(Core.System.kernel s) (Rtl.Bus.wires b))
    | _ -> ()
  in
  ignore
    (Core.Runner.run_trace ~level:Core.Level.Rtl ~mode:`Serial ~init vcd_trace);
  let path = Filename.temp_file "wire_ledger" ".vcd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rtl.Vcd.write (Option.get !vcd) path;
      In_channel.with_open_text path In_channel.input_all)
