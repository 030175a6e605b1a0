(* Prints, as exact hexadecimal floats, the figures of the estimators
   and the plan folds: interpreted rtl, L1 and L2 runs (totals,
   transitions, and the gate level's and layer 1's per-wire sums and
   transitions over a driven stimulus), a 20-point L1 fold, an L2 fold
   and a fabric fold.  The dune rule beside it runs the bytecode and the
   native build and diffs their output, so the two builds of the lane
   kernel's externals (one C entry each, or a bytecode stub) must agree
   to the bit. *)

let pr fmt = Printf.printf fmt

let trace = Core.Workloads.table3_trace ~n:200

let print_run name (r : Core.Runner.result) =
  pr "%s cycles %d transitions %d bus %h component %h\n" name
    r.Core.Runner.cycles r.Core.Runner.transitions r.Core.Runner.bus_pj
    r.Core.Runner.component_pj

let print_array name a = Array.iteri (fun i x -> pr "%s %d %h\n" name i x) a

(* The wires driven from a fixed seed, every group and the selects. *)
let drive rng w =
  Rtl.Wires.set_addr w (Sim.Rng.bits rng 34);
  Rtl.Wires.set_be w (Sim.Rng.bits rng 4);
  Rtl.Wires.set_wdata w (Sim.Rng.bits rng 32);
  Rtl.Wires.set_rdata w (Sim.Rng.bits rng 32);
  List.iter (fun c -> Rtl.Wires.set_ctrl w c (Sim.Rng.bool rng)) Ec.Signals.all_ctrl;
  Rtl.Wires.set_sel w (Sim.Rng.bits rng 4)

let per_wire () =
  let w = Rtl.Wires.create ~n_slaves:4 in
  let d = Rtl.Diesel.create w in
  let w1 = Rtl.Wires.create ~n_slaves:4 in
  let e = Tlm1.Energy.create Power.Characterization.default in
  let rng = Sim.Rng.create ~seed:44 and rng1 = Sim.Rng.create ~seed:44 in
  for _ = 1 to 300 do
    drive rng w;
    Rtl.Diesel.observe_and_commit d;
    drive rng1 w1;
    Tlm1.Energy.end_cycle e w1
  done;
  pr "gate interface %h internal %h transitions %d words %d bits %d\n"
    (Rtl.Diesel.interface_pj d) (Rtl.Diesel.internal_pj d)
    (Rtl.Diesel.transitions_total d) (Rtl.Diesel.words_scanned d)
    (Rtl.Diesel.bits_visited d);
  print_array "gate wire pj" (Rtl.Diesel.per_signal_energy_pj d);
  Array.iteri (pr "gate wire transitions %d %d\n")
    (Rtl.Diesel.per_signal_transitions d);
  pr "l1 total %h transitions %d words %d\n" (Tlm1.Energy.total_pj e)
    (Tlm1.Energy.transitions_total e) (Tlm1.Energy.transition_words e)

(* Twenty tables: the default's energies, each wire scaled apart. *)
let points =
  let base = Power.Characterization.to_array Power.Characterization.default in
  List.init 20 (fun p ->
      {
        Compile.Eval.table =
          Power.Characterization.derive ~name:(string_of_int p)
            ~energy_pj:
              (Array.mapi
                 (fun i x -> x *. (1.0 +. (float_of_int ((i * 7) + p) /. 29.0)))
                 base)
            ~transitions:(Array.make Ec.Signals.count 1);
        l2_params = None;
      })

let () =
  List.iter
    (fun (name, level) -> print_run name (Core.Runner.run_trace ~level trace))
    [ ("rtl", Core.Level.Rtl); ("l1", Core.Level.L1); ("l2", Core.Level.L2) ];
  per_wire ();
  let fold name level points =
    List.iteri
      (fun i (r : Core.Runner.result) -> pr "%s fold %d %h\n" name i r.bus_pj)
      (Core.Runner.replay_multi ~points (Core.Runner.compile_trace ~level trace))
  in
  fold "l1" Core.Level.L1 points;
  fold "l2" Core.Level.L2
    (List.filteri (fun i _ -> i < 4) points
    |> List.mapi (fun i (p : Compile.Eval.point) ->
           { p with
             Compile.Eval.l2_params =
               Some
                 { Tlm2.Energy.default_params with
                   Tlm2.Energy.boundary_data_toggles = 10.0 +. float_of_int i } }));
  let plan =
    Core.Contention.compile ~level:Core.Level.L1
      (Core.Contention.default_masters ~n:60 Core.Contention.Single)
  in
  List.iteri
    (fun i (o : Compile.Eval.fabric_outcome) ->
      pr "fabric fold %d %h bridge %h\n" i o.fabric_pj o.fabric_bridge_pj;
      print_array "fabric bucket" o.buckets)
    (Compile.Eval.eval_fabric_multi plan
       ~points:(List.filteri (fun i _ -> i < 3) points))
