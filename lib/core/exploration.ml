type row = {
  config : Jcvm.Configs.t;
  applet : string;
  level : Level.t;
  cycles : int;
  bus_pj : float;
  transactions : int;
  steps : int;
  value : int option;
  correct : bool;
  provenance : Hier.Splice.t option;
}

(* The interpreter run shared by the fixed-level and adaptive paths:
   bind the applet's stack calls to the adapter, run to completion,
   drain, and compute the software-stack reference. *)
let interpret ~kernel ~port ~config (applet : Jcvm.Applets.t) =
  let adapter = Jcvm.Master_adapter.create ~kernel ~port config in
  let firewall = Jcvm.Firewall.create () in
  let memory = Jcvm.Memmgr.create firewall in
  Array.iteri
    (fun i v -> Jcvm.Memmgr.set_static memory i v)
    applet.Jcvm.Applets.statics;
  let ctx = Jcvm.Firewall.new_context firewall in
  let result =
    Jcvm.Interp.run_methods
      ~stack:(Jcvm.Master_adapter.ops adapter)
      ~memory ~ctx
      (Jcvm.Applets.method_table applet)
  in
  (* Drain any buffered packed push so its bus cost is accounted. *)
  Jcvm.Master_adapter.flush adapter;
  let reference =
    Jcvm.Interp.run_soft ~statics:applet.Jcvm.Applets.statics
      ~methods:applet.Jcvm.Applets.methods applet.Jcvm.Applets.program
  in
  let correct =
    result.Jcvm.Interp.value = reference.Jcvm.Interp.value
    && (applet.Jcvm.Applets.expected = None
       || result.Jcvm.Interp.value = applet.Jcvm.Applets.expected)
  in
  (result, Jcvm.Master_adapter.transactions adapter, correct)

(* One fixed-level cell interpreted on a fresh system at the default
   table.  [sink] goes to the bus's interface. *)
let interpret_cell ?sink ~level ~config applet =
  let hw = Jcvm.Hw_stack.create config in
  let system =
    System.create ~level ~extra_slaves:[ Jcvm.Hw_stack.slave hw ] ()
  in
  Iface.set_sink (System.iface (System.bus system)) sink;
  let kernel = System.kernel system in
  let result, transactions, correct =
    interpret ~kernel ~port:(System.port system) ~config applet
  in
  {
    config;
    applet = applet.Jcvm.Applets.name;
    level;
    cycles = Sim.Kernel.now kernel;
    bus_pj = System.bus_energy_pj system;
    transactions;
    steps = result.Jcvm.Interp.steps;
    value = result.Jcvm.Interp.value;
    correct;
    provenance = None;
  }

(* A warm grid cell is its row: priced at the one table it is
   interpreted with, it keeps no plan. *)
let cell_kind : row Pool.kind = Pool.kind ()

(* Pooled adaptive sessions: the hardware stack rides with the live
   materials (its slave is wired into the decoder at creation, its
   reset is the materials' extra reset).  The key fingerprints the
   policy's levels and the interface configuration, which reset does
   not undo. *)
let live_kind : Runner.live_materials Pool.kind = Pool.kind ()

let run_fixed ?(level = Level.L1) ?sink ?pool ~config applet =
  match (pool, sink) with
  | Some p, None ->
    (* A repeated cell is one lookup.  A cell with a sink interprets,
       so that its sink records the run. *)
    let key =
      Printf.sprintf "explore:%s:%s:%s" (Level.to_string level)
        applet.Jcvm.Applets.name
        (Pool.fingerprint config)
    in
    Pool.memo p cell_kind ~tag:"explore" ~key (fun () ->
        interpret_cell ~level ~config applet)
  | _, _ -> interpret_cell ?sink ~level ~config applet

let run_adaptive ?sink ?pool ~policy ~config applet =
  let execute (live : Runner.live) =
    let result, transactions, correct =
      interpret ~kernel:live.Runner.kernel ~port:live.Runner.port ~config
        applet
    in
    let run = live.Runner.finish () in
    {
      config;
      applet = applet.Jcvm.Applets.name;
      level = policy.Hier.Policy.base;
      cycles = Sim.Kernel.now live.Runner.kernel;
      bus_pj = run.Runner.bus_pj;
      transactions;
      steps = result.Jcvm.Interp.steps;
      value = result.Jcvm.Interp.value;
      correct;
      provenance = Some run.Runner.splice;
    }
  in
  (* The peripherals sit on the gated clock tree: exploration traffic
     never reaches them. *)
  let materials ?extra_reset hw =
    Runner.live_materials ~peripheral_clock:`Gated
      ~extra_slaves:[ Jcvm.Hw_stack.slave hw ]
      ?extra_reset ~policy ()
  in
  match pool with
  | Some p ->
    let key =
      Printf.sprintf "explore-live:%s"
        (Pool.fingerprint (Hier.Policy.levels policy, config))
    in
    Pool.with_session p live_kind ~key
      ~build:(fun () ->
        let hw = Jcvm.Hw_stack.create config in
        materials ~extra_reset:(fun () -> Jcvm.Hw_stack.reset hw) hw)
      ~reset:Runner.reset_live_materials
      (fun m -> execute (Runner.live_adaptive ?sink ~policy m))
  | None ->
    execute
      (Runner.live_adaptive ?sink ~policy
         (materials (Jcvm.Hw_stack.create config)))

let run_one ?level ?policy ?sink ?pool ~config applet =
  match policy with
  | None -> run_fixed ?level ?sink ?pool ~config applet
  | Some policy ->
    (match level with
    | Some _ ->
      invalid_arg "Core.Exploration.run_one: pass either ~level or ~policy"
    | None -> run_adaptive ?sink ?pool ~policy ~config applet)

(* The default session/memo pool shared by every [run] call of the
   process: memoized cells are only worth keeping if they survive from
   one grid to the next. *)
let default_pool = lazy (Pool.create ())

let run ?level ?policy ?(applets = Jcvm.Applets.all) ?domains () =
  (* Every applet x configuration cell is an independent system; fan the
     flattened grid out over [domains], all sharing the one pool. *)
  let pool = Lazy.force default_pool in
  Parallel.map ?domains
    (fun (applet, config) -> run_one ?level ?policy ~pool ~config applet)
    (List.concat_map
       (fun applet ->
         List.map (fun config -> (applet, config)) Jcvm.Configs.standard)
       applets)

(* Per-level aggregate of a row's spliced windows: windows, cycles, pJ. *)
let level_split splice level =
  List.fold_left
    (fun (w, cy, pj) (win : Hier.Splice.window) ->
      if win.Hier.Splice.level = level then
        (w + 1, cy + win.Hier.Splice.cycles, pj +. win.Hier.Splice.bus_pj)
      else (w, cy, pj))
    (0, 0, 0.0) splice.Hier.Splice.windows

let split_string splice level =
  let w, cy, pj = level_split splice level in
  if w = 0 then "-" else Printf.sprintf "%dw %dcy %.1fpJ" w cy pj

let render rows =
  let by_applet = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let existing =
        try Hashtbl.find by_applet row.applet with Not_found -> []
      in
      Hashtbl.replace by_applet row.applet (row :: existing))
    rows;
  let applet_names =
    List.sort_uniq compare (List.map (fun r -> r.applet) rows)
  in
  let adaptive = List.exists (fun r -> r.provenance <> None) rows in
  let render_applet name =
    let group = List.rev (Hashtbl.find by_applet name) in
    let best =
      List.fold_left
        (fun acc r -> if r.correct && r.bus_pj < acc then r.bus_pj else acc)
        infinity group
    in
    let body =
      List.map
        (fun r ->
          [
            (* "*" marks the best correct configuration; "!" flags a
               functionally wrong one, which can never be best. *)
            (if not r.correct then "! " ^ r.config.Jcvm.Configs.name
             else if r.bus_pj = best then "* " ^ r.config.Jcvm.Configs.name
             else r.config.Jcvm.Configs.name);
            string_of_int r.cycles;
            Printf.sprintf "%.1f" r.bus_pj;
            string_of_int r.transactions;
            (match r.value with Some v -> string_of_int v | None -> "-");
            (if r.correct then "ok" else "WRONG");
          ]
          @
          if not adaptive then []
          else
            match r.provenance with
            | None -> [ "-"; "-"; "-" ]
            | Some s ->
              [
                split_string s Level.L1;
                split_string s Level.L2;
                Printf.sprintf "±%.1f" s.Hier.Splice.error_bound_pj;
              ])
        group
    in
    let header =
      [ "configuration"; "cycles"; "bus pJ"; "bus txns"; "result"; "check" ]
      @ if adaptive then [ "L1 windows"; "L2 windows"; "budget" ] else []
    in
    Printf.sprintf "applet %s (%d bytecode steps):\n%s" name
      (match group with r :: _ -> r.steps | [] -> 0)
      (Report.table ~header body)
  in
  String.concat "\n\n" (List.map render_applet applet_names)
