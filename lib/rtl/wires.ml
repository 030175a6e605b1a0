type t = {
  addr : Sim.Signal.t;
  be : Sim.Signal.t;
  wdata : Sim.Signal.t;
  rdata : Sim.Signal.t;
  ctrl : Sim.Signal.t array;  (* indexed like Ec.Signals.all_ctrl *)
  sel : Sim.Signal.t;
}

let create ~n_slaves =
  if n_slaves < 1 || n_slaves > 62 then invalid_arg "Rtl.Wires.create";
  {
    addr = Sim.Signal.create ~name:"EB_A" ~width:Ec.Signals.addr_wires;
    be = Sim.Signal.create ~name:"EB_BE" ~width:Ec.Signals.be_wires;
    wdata = Sim.Signal.create ~name:"EB_WData" ~width:Ec.Signals.data_wires;
    rdata = Sim.Signal.create ~name:"EB_RData" ~width:Ec.Signals.data_wires;
    ctrl =
      Array.of_list
        (List.map
           (fun c -> Sim.Signal.create ~name:(Ec.Signals.to_string (Ec.Signals.Ctrl c)) ~width:1)
           Ec.Signals.all_ctrl);
    sel = Sim.Signal.create ~name:"SEL" ~width:n_slaves;
  }

let addr t = t.addr
let be t = t.be
let wdata t = t.wdata
let rdata t = t.rdata
let sel t = t.sel
let ctrl t c = t.ctrl.(Ec.Signals.ctrl_index c)
let set_ctrl t c v = Sim.Signal.set (ctrl t c) (if v then 1 else 0)
let interface_groups t =
  [
    (Ec.Signals.Addr 0, t.addr);
    (Ec.Signals.Be 0, t.be);
    (Ec.Signals.Wdata 0, t.wdata);
    (Ec.Signals.Rdata 0, t.rdata);
  ]
  @ List.map (fun c -> (Ec.Signals.Ctrl c, ctrl t c)) Ec.Signals.all_ctrl

let commit_all t =
  ignore (Sim.Signal.commit t.addr);
  ignore (Sim.Signal.commit t.be);
  ignore (Sim.Signal.commit t.wdata);
  ignore (Sim.Signal.commit t.rdata);
  Array.iter (fun s -> ignore (Sim.Signal.commit s)) t.ctrl;
  ignore (Sim.Signal.commit t.sel)

let reset t =
  Sim.Signal.reset t.addr;
  Sim.Signal.reset t.be;
  Sim.Signal.reset t.wdata;
  Sim.Signal.reset t.rdata;
  Array.iter Sim.Signal.reset t.ctrl;
  Sim.Signal.reset t.sel
