let lines = 16
let pending_off = 0x0
let enable_off = 0x4
let active_off = 0x8

type t = {
  cfg : Ec.Slave_cfg.t;
  component : Power.Component.t;
  proc : Sim.Kernel.handle;  (* parked while no enabled line is pending *)
  mutable pending : int;
  mutable enable : int;
  mutable raised_total : int;
}

let asserted t = t.pending land t.enable <> 0
let wake t = if asserted t then Sim.Kernel.unpark t.proc

(* Without a kernel the slot sits on a private, never-stepped one: no
   cycles, only accesses. *)
let create ?kernel cfg =
  let kernel = match kernel with Some k -> k | None -> Sim.Kernel.create () in
  let name = cfg.Ec.Slave_cfg.name in
  let proc = Sim.Kernel.slot kernel ~name:(name ^ "-power") in
  let t =
    {
      cfg;
      component =
        Power.Component.create ~name ~slot:proc
          (Power.Component.params ~idle_pj_per_cycle:0.02
             ~active_pj_per_cycle:0.15 ~access_pj:1.0 ());
      proc;
      pending = 0;
      enable = 0;
      raised_total = 0;
    }
  in
  Sim.Kernel.bind proc (fun _ ->
      if asserted t then Power.Component.count_active t.component
      else Sim.Kernel.park proc);
  t

let raise_line t n =
  if n < 0 || n >= lines then invalid_arg "Soc.Intc.raise_line";
  t.pending <- t.pending lor (1 lsl n);
  t.raised_total <- t.raised_total + 1;
  wake t

let read t ~addr ~width:_ =
  Power.Component.access t.component;
  match addr - t.cfg.Ec.Slave_cfg.base with
  | off when off = pending_off -> t.pending
  | off when off = enable_off -> t.enable
  | off when off = active_off -> t.pending land t.enable
  | _ -> 0

let write t ~addr ~width:_ ~value =
  Power.Component.access t.component;
  match addr - t.cfg.Ec.Slave_cfg.base with
  | off when off = pending_off -> t.pending <- t.pending land lnot value
  | off when off = enable_off ->
    t.enable <- value land ((1 lsl lines) - 1);
    wake t
  | _ -> ()

let slave t = Ec.Slave.make ~cfg:t.cfg ~read:(read t) ~write:(write t)
let component t = t.component
let pending t = t.pending
let raised_total t = t.raised_total

let reset t =
  t.pending <- 0;
  t.enable <- 0;
  t.raised_total <- 0;
  Sim.Kernel.park t.proc;
  Power.Component.reset t.component
