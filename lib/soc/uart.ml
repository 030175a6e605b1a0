let data_off = 0x0
let status_off = 0x4
let ctrl_off = 0x8
let baud_off = 0xC
let tx_fifo_capacity = 16

type t = {
  cfg : Ec.Slave_cfg.t;
  component : Power.Component.t;
  proc : Sim.Kernel.handle;  (* parked while idle with an empty tx FIFO *)
  rx_irq : unit -> unit;
  tx_fifo : int Queue.t;
  rx_fifo : int Queue.t;
  out : Buffer.t;
  mutable enabled : bool;
  mutable baud : int;
  mutable shifting : int option;  (* byte on the wire *)
  mutable bit_cycles_left : int;
}

let create ~kernel ?(rx_irq = fun () -> ()) cfg =
  let name = cfg.Ec.Slave_cfg.name in
  let proc = Sim.Kernel.slot kernel ~name:(name ^ "-tick") in
  let t =
    {
      cfg;
      component =
        Power.Component.create ~name ~slot:proc Power.Component.Presets.uart;
      proc;
      rx_irq;
      tx_fifo = Queue.create ();
      rx_fifo = Queue.create ();
      out = Buffer.create 64;
      enabled = true;
      baud = 16;
      shifting = None;
      bit_cycles_left = 0;
    }
  in
  let tick _ =
    (match t.shifting with
    | Some byte ->
      t.bit_cycles_left <- t.bit_cycles_left - 1;
      if t.bit_cycles_left <= 0 then begin
        Buffer.add_char t.out (Char.chr (byte land 0xFF));
        t.shifting <- None
      end
    | None ->
      if t.enabled && not (Queue.is_empty t.tx_fifo) then begin
        t.shifting <- Some (Queue.pop t.tx_fifo);
        t.bit_cycles_left <- 10 * t.baud
      end);
    if t.shifting <> None then Power.Component.count_active t.component
    else if Queue.is_empty t.tx_fifo then Sim.Kernel.park proc
  in
  Sim.Kernel.bind proc tick;
  t

let status t =
  (if t.shifting <> None then 1 else 0)
  lor (if not (Queue.is_empty t.rx_fifo) then 2 else 0)
  lor if Queue.length t.tx_fifo >= tx_fifo_capacity then 4 else 0

let read t ~addr ~width:_ =
  Power.Component.access t.component;
  match addr - t.cfg.Ec.Slave_cfg.base with
  | off when off = data_off ->
    if Queue.is_empty t.rx_fifo then 0 else Queue.pop t.rx_fifo
  | off when off = status_off -> status t
  | off when off = ctrl_off -> if t.enabled then 1 else 0
  | off when off = baud_off -> t.baud
  | _ -> 0

let write t ~addr ~width:_ ~value =
  Power.Component.access t.component;
  match addr - t.cfg.Ec.Slave_cfg.base with
  | off when off = data_off ->
    if Queue.length t.tx_fifo < tx_fifo_capacity then begin
      Queue.push (value land 0xFF) t.tx_fifo;
      Sim.Kernel.unpark t.proc
    end
  | off when off = ctrl_off -> t.enabled <- value land 1 = 1
  | off when off = baud_off -> t.baud <- max 1 (value land 0xFFFF)
  | _ -> ()

let slave t = Ec.Slave.make ~cfg:t.cfg ~read:(read t) ~write:(write t)
let component t = t.component
let inject_rx t byte =
  Queue.push (byte land 0xFF) t.rx_fifo;
  t.rx_irq ()
let transmitted t = Buffer.contents t.out
let tx_busy t = t.shifting <> None
let reset t =
  Queue.clear t.tx_fifo;
  Queue.clear t.rx_fifo;
  Buffer.clear t.out;
  t.enabled <- true;
  t.baud <- 16;
  t.shifting <- None;
  t.bit_cycles_left <- 0;
  Sim.Kernel.park t.proc;
  Power.Component.reset t.component
