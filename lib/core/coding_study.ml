type bus_row = {
  bus : string;
  width : int;
  report : Power.Coding.report;
  plain_pj : float;
  best_scheme : string;
  best_pj : float;
}

type t = { workload : string; cycles : int; rows : bus_row list }

let analyze_sampler ~table sampler cycles workload =
  let row bus width values avg_pj =
    let report = Power.Coding.analyze ~width values in
    let pj transitions = float_of_int transitions *. avg_pj in
    let plain_pj = pj report.Power.Coding.plain in
    let candidates =
      [
        ("plain", plain_pj);
        ("bus-invert", pj report.Power.Coding.bus_inverted);
        ("gray", pj report.Power.Coding.gray);
      ]
    in
    let best_scheme, best_pj =
      List.fold_left
        (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv))
        (List.hd candidates) (List.tl candidates)
    in
    { bus; width; report; plain_pj; best_scheme; best_pj }
  in
  {
    workload;
    cycles;
    rows =
      [
        row "address" Ec.Signals.addr_wires
          (Rtl.Sampler.addr_values sampler)
          (Power.Characterization.avg_addr_bit table);
        row "write data" Ec.Signals.data_wires
          (Rtl.Sampler.wdata_values sampler)
          (Power.Characterization.avg_wdata_bit table);
        row "read data" Ec.Signals.data_wires
          (Rtl.Sampler.rdata_values sampler)
          (Power.Characterization.avg_rdata_bit table);
      ];
  }

let instrumented_system () =
  let system = System.create ~level:Level.Rtl () in
  let sampler =
    match System.bus system with
    | System.Rtl_bus bus ->
      Rtl.Sampler.create ~kernel:(System.kernel system) (Rtl.Bus.wires bus)
    | System.L1_bus _ | System.L2_bus _ -> assert false
  in
  (system, sampler)

(* One characterization shared by every run.  A top-level [lazy] is not
   domain-safe — two domains forcing it at once race on the thunk (one
   raises [Lazy.Undefined]) — so the memo is a mutex-guarded ref; the
   loser of the race blocks and reuses the winner's table. *)
let table_lock = Mutex.create ()
let table_memo = ref None

let characterization_table () =
  Mutex.protect table_lock (fun () ->
      match !table_memo with
      | Some t -> t
      | None ->
        let t = Runner.characterize () in
        table_memo := Some t;
        t)

let run_program ?name program =
  let system, sampler = instrumented_system () in
  let kernel = System.kernel system in
  Runner.fill_memories system;
  Soc.Platform.load_program (System.platform system) program;
  let platform = System.platform system in
  let cpu =
    Soc.Cpu.create ~kernel ~port:(System.port system) ~pc:program.Soc.Asm.origin
      ~irq:(fun () -> Soc.Platform.irq_asserted platform)
      ()
  in
  let cycles = Soc.Cpu.run_to_halt cpu ~kernel () in
  analyze_sampler ~table:(characterization_table ()) sampler cycles
    (Option.value name ~default:"program")

let render t =
  let body =
    List.map
      (fun r ->
        [
          r.bus;
          string_of_int r.report.Power.Coding.plain;
          Printf.sprintf "%d (%+.1f%%)" r.report.Power.Coding.bus_inverted
            (-.r.report.Power.Coding.bus_invert_savings_pct);
          Printf.sprintf "%d (%+.1f%%)" r.report.Power.Coding.gray
            (-.r.report.Power.Coding.gray_savings_pct);
          Printf.sprintf "%s (%.1f pJ vs %.1f pJ)" r.best_scheme r.best_pj
            r.plain_pj;
        ])
      t.rows
  in
  Printf.sprintf "Bus coding study: %s (%d cycles)\n%s" t.workload t.cycles
    (Report.table
       ~header:[ "bus"; "plain toggles"; "bus-invert"; "gray"; "best" ]
       body)
