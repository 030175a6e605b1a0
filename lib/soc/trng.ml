let data_off = 0x0
let status_off = 0x4
let ctrl_off = 0x8

type t = {
  cfg : Ec.Slave_cfg.t;
  component : Power.Component.t;
  proc : Sim.Kernel.handle;  (* parked unless refilling *)
  rng : Sim.Rng.t;
  seed : int;  (* creation seed, replayed by [reset] *)
  refill_cycles : int;
  mutable current : int;
  mutable refill_left : int;
  mutable enabled : bool;
  mutable delivered : int;
}

let refilling t = t.enabled && t.refill_left > 0

let create ~kernel ~seed
    ?(refill_cycles = 8) cfg =
  let rng = Sim.Rng.create ~seed in
  let name = cfg.Ec.Slave_cfg.name in
  let proc = Sim.Kernel.slot kernel ~name:(name ^ "-tick") in
  let t =
    {
      cfg;
      component =
        Power.Component.create ~name ~slot:proc Power.Component.Presets.trng;
      proc;
      rng;
      seed;
      refill_cycles;
      current = Sim.Rng.bits rng 32;
      refill_left = 0;
      enabled = true;
      delivered = 0;
    }
  in
  let tick _ =
    if refilling t then begin
      t.refill_left <- t.refill_left - 1;
      if t.refill_left = 0 then t.current <- Sim.Rng.bits t.rng 32
    end;
    if refilling t then Power.Component.count_active t.component
    else Sim.Kernel.park proc
  in
  Sim.Kernel.bind proc tick;
  t

let ready t = t.refill_left = 0
let wake t = if refilling t then Sim.Kernel.unpark t.proc

let read t ~addr ~width:_ =
  Power.Component.access t.component;
  match addr - t.cfg.Ec.Slave_cfg.base with
  | off when off = data_off ->
    let v = t.current in
    if ready t && t.enabled then begin
      t.refill_left <- t.refill_cycles;
      t.delivered <- t.delivered + 1;
      wake t
    end;
    v
  | off when off = status_off -> if ready t then 1 else 0
  | off when off = ctrl_off -> if t.enabled then 1 else 0
  | _ -> 0

let write t ~addr ~width:_ ~value =
  Power.Component.access t.component;
  match addr - t.cfg.Ec.Slave_cfg.base with
  | off when off = ctrl_off ->
    t.enabled <- value land 1 = 1;
    wake t
  | _ -> ()

let slave t = Ec.Slave.make ~cfg:t.cfg ~read:(read t) ~write:(write t)
let component t = t.component
let words_delivered t = t.delivered

let reset t =
  Sim.Rng.reseed t.rng ~seed:t.seed;
  t.current <- Sim.Rng.bits t.rng 32;
  t.refill_left <- 0;
  t.enabled <- true;
  t.delivered <- 0;
  Sim.Kernel.park t.proc;
  Power.Component.reset t.component
