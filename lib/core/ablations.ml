type row = { label : string; value : float; note : string }

(* Layer-1 energy error (%) vs the gate-level reference over the
   accuracy stimulus, with a specific electrical parameter set and
   table. *)
let energy_error ~pool ~rtl_params ~table =
  let segments = Experiments.accuracy_stimulus () in
  let total lvl =
    List.fold_left
      (fun acc (_, trace, mode, init) ->
        let r =
          Runner.run_trace ~level:lvl ~rtl_params ~table ~mode ~init ~pool
            trace
        in
        acc +. r.Runner.bus_pj)
      0.0 segments
  in
  let reference = total Level.Rtl in
  Power.Units.pct_error ~reference (total Level.L1)

let coupling_sensitivity ~pool () =
  List.map
    (fun ratio ->
      let rtl_params = { Rtl.Params.default with Rtl.Params.coupling_ratio = ratio } in
      let table = Runner.characterize ~rtl_params () in
      {
        label = Printf.sprintf "coupling ratio %.2f" ratio;
        value = energy_error ~pool ~rtl_params ~table;
        note = (if ratio = Rtl.Params.default.Rtl.Params.coupling_ratio then "default" else "");
      })
    [ 0.0; 0.10; Rtl.Params.default.Rtl.Params.coupling_ratio; 0.40 ]

let scale_internal (p : Rtl.Params.t) k =
  {
    p with
    Rtl.Params.decoder_pj_per_addr_toggle = p.Rtl.Params.decoder_pj_per_addr_toggle *. k;
    glitch_pj_per_hamming = p.Rtl.Params.glitch_pj_per_hamming *. k;
    mux_pj_per_rdata_toggle = p.Rtl.Params.mux_pj_per_rdata_toggle *. k;
    fsm_pj_per_ctrl_toggle = p.Rtl.Params.fsm_pj_per_ctrl_toggle *. k;
    sel_pj_per_toggle = p.Rtl.Params.sel_pj_per_toggle *. k;
    leakage_pj_per_cycle = p.Rtl.Params.leakage_pj_per_cycle *. k;
  }

let internal_nets_sensitivity ~pool () =
  List.map
    (fun k ->
      let rtl_params = scale_internal Rtl.Params.default k in
      let table = Runner.characterize ~rtl_params () in
      {
        label = Printf.sprintf "internal nets x%.1f" k;
        value = energy_error ~pool ~rtl_params ~table;
        note = (if k = 1.0 then "default" else "");
      })
    [ 0.0; 0.5; 1.0; 2.0 ]

(* The gate-level reference total over the accuracy stimulus — the
   denominator every table/parameter variant shares. *)
let rtl_reference ?pool segments =
  List.fold_left
    (fun acc (_, trace, mode, init) ->
      acc
      +. (Runner.run_trace ~level:Level.Rtl ~mode ~init ?pool trace)
           .Runner.bus_pj)
    0.0 segments

(* Table variants are a pure evaluation sweep: each stimulus segment
   compiles once (the plan is table-independent) and both tables fold
   off it in a single multi-point replay — the interpreted layer-1 run
   happens twice fewer times, bit-identically.  Segments carry an
   [init] closure, which the plan memo cannot fingerprint, so plans
   compile unpooled; [pool] serves the gate-level reference only. *)
let characterization_quality ?pool () =
  let derived = Runner.characterize () in
  let segments = Experiments.accuracy_stimulus () in
  let tables =
    [
      (Power.Characterization.default, "default capacitance table",
       "top-down, pre-layout");
      (derived, "derived (gate-level) table", "the paper's Diesel flow");
    ]
  in
  let points =
    List.map (fun (t, _, _) -> { Compile.Eval.table = t; l2_params = None }) tables
  in
  let totals = Array.make (List.length tables) 0.0 in
  List.iter
    (fun (_, trace, mode, init) ->
      let plan = Runner.compile_trace ~level:Level.L1 ~mode ~init trace in
      List.iteri
        (fun i (r : Runner.result) -> totals.(i) <- totals.(i) +. r.Runner.bus_pj)
        (Runner.replay_multi ~points plan))
    segments;
  let reference = rtl_reference ?pool segments in
  List.mapi
    (fun i (_, label, note) ->
      { label; value = Power.Units.pct_error ~reference totals.(i); note })
    tables

(* The boundary-toggle sweep is the multi-point evaluator's home
   ground: the four parameter variants share one layer-2 plan per
   stimulus segment, so the whole curve costs one interpreted run per
   segment plus four float folds. *)
let l2_boundary_sensitivity ~pool () =
  let table = Runner.characterize () in
  let segments = Experiments.accuracy_stimulus () in
  let bds =
    [ 6.0; 10.0; Tlm2.Energy.default_params.Tlm2.Energy.boundary_data_toggles; 18.0 ]
  in
  let points =
    List.map
      (fun bd ->
        {
          Compile.Eval.table;
          l2_params =
            Some
              {
                Tlm2.Energy.default_params with
                Tlm2.Energy.boundary_data_toggles = bd;
              };
        })
      bds
  in
  let totals = Array.make (List.length bds) 0.0 in
  List.iter
    (fun (_, trace, mode, init) ->
      let plan = Runner.compile_trace ~level:Level.L2 ~mode ~init trace in
      List.iteri
        (fun i (r : Runner.result) -> totals.(i) <- totals.(i) +. r.Runner.bus_pj)
        (Runner.replay_multi ~points plan))
    segments;
  let reference = rtl_reference ~pool segments in
  List.mapi
    (fun i bd ->
      {
        label = Printf.sprintf "boundary data toggles %.1f" bd;
        value = Power.Units.pct_error ~reference totals.(i);
        note =
          (if bd = Tlm2.Energy.default_params.Tlm2.Energy.boundary_data_toggles
           then "default"
           else "");
      })
    bds

let store_buffer_effect () =
  List.concat_map
    (fun (name, src) ->
      let program = Soc.Asm.assemble src in
      let cycles ~store_buffer =
        let system = System.create ~level:Level.L1 () in
        let kernel = System.kernel system in
        let platform = System.platform system in
        Soc.Platform.load_program platform program;
        let cpu =
          Soc.Cpu.create ~kernel ~port:(System.port system)
            ~pc:program.Soc.Asm.origin ~store_buffer
            ~irq:(fun () -> Soc.Platform.irq_asserted platform)
            ()
        in
        Soc.Cpu.run_to_halt cpu ~kernel ()
      in
      let buffered = cycles ~store_buffer:true in
      let blocking = cycles ~store_buffer:false in
      [
        {
          label = name;
          value = float_of_int blocking /. float_of_int buffered;
          note = Printf.sprintf "%d vs %d cycles" buffered blocking;
        };
      ])
    [
      ("memcpy", Test_programs.memcpy ~words:16);
      ("bubble-sort", Test_programs.bubble_sort ~n:10);
      ("bus-exercise", Test_programs.bus_exercise);
    ]

let render ~title rows =
  let body =
    List.map (fun r -> [ r.label; Printf.sprintf "%+.2f" r.value; r.note ]) rows
  in
  title ^ "\n" ^ Report.table ~header:[ "variant"; "value"; "note" ] body

let run_all () =
  (* The five studies are independent (each characterizes and simulates
     its own systems); fan them out with Parallel.map over one shared
     session pool. *)
  let pool = Pool.create () in
  String.concat "\n\n"
    (Parallel.map
       (fun (title, study) -> render ~title (study ()))
       [
         ( "Ablation: reference coupling ratio -> layer-1 energy error [%]",
           coupling_sensitivity ~pool );
         ( "Ablation: internal-net energy scale -> layer-1 energy error [%]",
           internal_nets_sensitivity ~pool );
         ( "Ablation: characterization table -> layer-1 energy error [%]",
           characterization_quality ~pool );
         ( "Ablation: layer-2 boundary data-toggle assumption -> layer-2 error [%]",
           l2_boundary_sensitivity ~pool );
         ( "Ablation: CPU store buffer (blocking/buffered cycle ratio per program)",
           store_buffer_effect );
       ])
