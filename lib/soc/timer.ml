let channels = 2

type channel = {
  mutable count : int;
  mutable reload : int;
  mutable enable : bool;
  mutable auto_reload : bool;
  mutable overflow : bool;
}

type t = {
  cfg : Ec.Slave_cfg.t;
  component : Power.Component.t;
  proc : Sim.Kernel.handle;  (* parked while every channel is disabled *)
  irq : int -> unit;
  chan : channel array;
}

let create ~kernel ?(irq = fun _ -> ()) cfg =
  let fresh_channel () =
    { count = 0; reload = 0; enable = false; auto_reload = false;
      overflow = false }
  in
  let name = cfg.Ec.Slave_cfg.name in
  let proc = Sim.Kernel.slot kernel ~name:(name ^ "-tick") in
  let t =
    {
      cfg;
      component =
        Power.Component.create ~name ~slot:proc Power.Component.Presets.timer;
      proc;
      irq;
      chan = Array.init channels (fun _ -> fresh_channel ());
    }
  in
  let tick _ =
    let any_enabled = ref false in
    Array.iteri
      (fun ch c ->
        if c.enable then begin
          any_enabled := true;
          c.count <- c.count + 1;
          if c.count > 0xFFFF then begin
            c.overflow <- true;
            c.count <- (if c.auto_reload then c.reload else 0);
            t.irq ch
          end
        end)
      t.chan;
    if !any_enabled then Power.Component.count_active t.component
    else Sim.Kernel.park proc
  in
  Sim.Kernel.bind proc tick;
  t

let locate t addr =
  let off = addr - t.cfg.Ec.Slave_cfg.base in
  let ch = off / 0x10 and reg = off mod 0x10 in
  if ch >= 0 && ch < channels then Some (t.chan.(ch), reg) else None

let read t ~addr ~width:_ =
  Power.Component.access t.component;
  match locate t addr with
  | Some (c, 0x0) -> c.count
  | Some (c, 0x4) -> c.reload
  | Some (c, 0x8) -> (if c.enable then 1 else 0) lor if c.auto_reload then 2 else 0
  | Some (c, 0xC) -> if c.overflow then 1 else 0
  | Some _ | None -> 0

let write t ~addr ~width:_ ~value =
  Power.Component.access t.component;
  match locate t addr with
  | Some (c, 0x0) -> c.count <- value land 0xFFFF
  | Some (c, 0x4) -> c.reload <- value land 0xFFFF
  | Some (c, 0x8) ->
    c.enable <- value land 1 = 1;
    c.auto_reload <- value land 2 = 2;
    if c.enable then Sim.Kernel.unpark t.proc
  | Some (c, 0xC) -> if value land 1 = 1 then c.overflow <- false
  | Some _ | None -> ()

let slave t = Ec.Slave.make ~cfg:t.cfg ~read:(read t) ~write:(write t)
let component t = t.component
let count t ch = t.chan.(ch).count
let overflowed t ch = t.chan.(ch).overflow

let reset t =
  Array.iter
    (fun c ->
      c.count <- 0;
      c.reload <- 0;
      c.enable <- false;
      c.auto_reload <- false;
      c.overflow <- false)
    t.chan;
  Sim.Kernel.park t.proc;
  Power.Component.reset t.component
