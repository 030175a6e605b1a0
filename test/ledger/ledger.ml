let hex f = Printf.sprintf "%h" f

let component prefix c =
  ( Printf.sprintf "%s/%s" prefix (Power.Component.name c),
    Printf.sprintf "active=%d idle=%d accesses=%d pj=%s"
      (Power.Component.active_cycles c)
      (Power.Component.idle_cycles c)
      (Power.Component.accesses c)
      (hex (Power.Component.energy_pj c)) )

let platform prefix p =
  List.map (component prefix) (Soc.Platform.components p)

let result prefix (r : Core.Runner.result) =
  ( prefix,
    Printf.sprintf "cycles=%d txns=%d beats=%d errors=%d bus=%s component=%s"
      r.Core.Runner.cycles r.Core.Runner.txns r.Core.Runner.beats
      r.Core.Runner.errors (hex r.Core.Runner.bus_pj)
      (hex r.Core.Runner.component_pj) )

let levels = Core.Level.[ Rtl; L1; L2; L3 ]

let traces () =
  let rng = Sim.Rng.create ~seed:0x1ED6E in
  [
    ("table3", Core.Workloads.table3_trace ~n:256);
    ("random", Core.Workloads.random_trace ~rng ~n:400 ~max_gap:6 ());
    ("dma", Core.Workloads.dma_trace ~words:96 ());
    ("crypto", Core.Workloads.crypto_trace ~blocks:12 ());
  ]

let trace_runs () =
  List.concat_map
    (fun (name, trace) ->
      List.concat_map
        (fun level ->
          let sys = ref None in
          let r =
            Core.Runner.run_trace ~level ~mode:`Serial
              ~init:(fun s -> sys := Some s)
              trace
          in
          let prefix =
            Printf.sprintf "trace/%s/%s" name (Core.Level.to_string level)
          in
          result prefix r
          ::
          (match !sys with
          | Some s -> platform prefix (Core.System.platform s)
          | None -> []))
        levels)
    (traces ())

let program_runs () =
  List.concat_map
    (fun (name, source) ->
      let program = Soc.Asm.assemble source in
      List.concat_map
        (fun level ->
          let run ?icache_lines tag =
            let pr = Core.Runner.run_program ~level ?icache_lines program in
            let prefix =
              Printf.sprintf "program/%s/%s%s" name
                (Core.Level.to_string level) tag
            in
            (result prefix pr.Core.Runner.result
            :: platform prefix (Core.System.platform pr.Core.Runner.system))
            @
            match pr.Core.Runner.icache with
            | Some c -> [ component prefix (Soc.Icache.component c) ]
            | None -> []
          in
          run ""
          @ if name = "checksum" then run ~icache_lines:8 "+icache" else [])
        Core.Level.[ Rtl; L1; L2 ])
    Core.Test_programs.all

(* One adaptive run's totals, windows and final platform state: [init]
   hands out the session's system, whose platform every window shares. *)
let adaptive prefix run =
  let sys = ref None in
  let r = run ~init:(fun s -> sys := Some s) in
  let s = r.Core.Runner.splice in
  ( prefix,
    Printf.sprintf "cycles=%d txns=%d switches=%d bus=%s component=%s"
      r.Core.Runner.cycles r.Core.Runner.txns r.Core.Runner.switches
      (hex r.Core.Runner.bus_pj)
      (hex r.Core.Runner.component_pj) )
  :: List.mapi
       (fun i (w : Hier.Splice.window) ->
         ( Printf.sprintf "%s/window%03d" prefix i,
           Printf.sprintf "level=%s cycles=%d component=%s"
             (Hier.Level.to_string w.Hier.Splice.level)
             w.Hier.Splice.cycles
             (hex w.Hier.Splice.component_pj) ))
       s.Hier.Splice.windows
  @
  match !sys with
  | Some sys -> platform (prefix ^ "/final") (Core.System.platform sys)
  | None -> []

let adaptive_runs () =
  let trace = Core.Workloads.mixed_phase_trace ~phase:96 ~n:768 () in
  let policy = Core.Experiments.adaptive_policy in
  let pool = Core.Pool.create () in
  ignore (Core.Runner.run_adaptive ~pool ~policy trace);
  adaptive "adaptive/fresh" (fun ~init ->
      Core.Runner.run_adaptive ~init ~policy trace)
  @ adaptive "adaptive/pooled" (fun ~init ->
        Core.Runner.run_adaptive ~init ~pool ~policy trace)
  @ adaptive "adaptive/gated" (fun ~init ->
        Core.Runner.run_adaptive ~init ~peripheral_clock:`Gated ~policy trace)

let contention_runs () =
  let r =
    Core.Contention.run ~level:Core.Level.L1
      (Core.Contention.default_masters ~n:96 Core.Contention.Single)
  in
  ( "contention/l1",
    Printf.sprintf "cycles=%d fabric=%s bus=%s" r.Core.Contention.cycles
      (hex r.Core.Contention.fabric_pj)
      (hex r.Core.Contention.bus_pj) )
  :: List.mapi
       (fun i (row : Core.Contention.master_row) ->
         ( Printf.sprintf "contention/l1/master%d" i,
           Printf.sprintf "txns=%d grants=%d pj=%s" row.Core.Contention.txns
             row.Core.Contention.grants
             (hex row.Core.Contention.energy_pj) ))
       r.Core.Contention.rows

let exploration_runs () =
  let config = List.hd Jcvm.Configs.standard in
  let row prefix (r : Core.Exploration.row) =
    ( prefix,
      Printf.sprintf "cycles=%d transactions=%d bus=%s"
        r.Core.Exploration.cycles r.Core.Exploration.transactions
        (hex r.Core.Exploration.bus_pj) )
    ::
    (match r.Core.Exploration.provenance with
    | None -> []
    | Some s ->
      List.mapi
        (fun i (w : Hier.Splice.window) ->
          ( Printf.sprintf "%s/window%03d" prefix i,
            Printf.sprintf "cycles=%d component=%s" w.Hier.Splice.cycles
              (hex w.Hier.Splice.component_pj) ))
        s.Hier.Splice.windows)
  in
  row "explore/fixed" (Core.Exploration.run_one ~config Jcvm.Applets.fib)
  @ row "explore/live"
      (Core.Exploration.run_one
         ~policy:(Hier.Policy.for_exploration ())
         ~config Jcvm.Applets.fib)

let entries () =
  trace_runs () @ program_runs () @ adaptive_runs () @ contention_runs ()
  @ exploration_runs ()
