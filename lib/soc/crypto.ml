let key_off = 0x00
let din_off = 0x04
let ctrl_off = 0x08
let status_off = 0x0C
let dout_off = 0x10
let mask_off = 0x14

(* The AES S-box. *)
let sbox_table =
  [|
    0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b;
    0xfe; 0xd7; 0xab; 0x76; 0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0;
    0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0; 0xb7; 0xfd; 0x93; 0x26;
    0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
    0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2;
    0xeb; 0x27; 0xb2; 0x75; 0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0;
    0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84; 0x53; 0xd1; 0x00; 0xed;
    0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
    0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f;
    0x50; 0x3c; 0x9f; 0xa8; 0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5;
    0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2; 0xcd; 0x0c; 0x13; 0xec;
    0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
    0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14;
    0xde; 0x5e; 0x0b; 0xdb; 0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c;
    0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79; 0xe7; 0xc8; 0x37; 0x6d;
    0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
    0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f;
    0x4b; 0xbd; 0x8b; 0x8a; 0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e;
    0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e; 0xe1; 0xf8; 0x98; 0x11;
    0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
    0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f;
    0xb0; 0x54; 0xbb; 0x16;
  |]

let sbox b = sbox_table.(b land 0xFF)

let reference ~key input =
  let byte v i = (v lsr (8 * i)) land 0xFF in
  let out = ref 0 in
  for i = 0 to 3 do
    out := !out lor (sbox (byte input i lxor byte key i) lsl (8 * i))
  done;
  !out

type t = {
  cfg : Ec.Slave_cfg.t;
  component : Power.Component.t;
  proc : Sim.Kernel.handle;  (* parked unless busy *)
  rng : Sim.Rng.t;
  seed : int;  (* creation seed, replayed by [reset] *)
  done_irq : unit -> unit;
  latency : int;
  mutable key : int;
  mutable din : int;
  mutable dout : int;
  mutable mask : int;
  mutable masked_mode : bool;
  mutable busy_left : int;
  mutable done_ : bool;
  mutable operations : int;
}

let create ~kernel ?(latency = 16)
    ?(seed = 0xC0DE) ?(done_irq = fun () -> ()) cfg =
  if latency < 1 then invalid_arg "Soc.Crypto.create: latency < 1";
  let name = cfg.Ec.Slave_cfg.name in
  let proc = Sim.Kernel.slot kernel ~name:(name ^ "-tick") in
  let t =
    {
      cfg;
      component =
        Power.Component.create ~name ~slot:proc Power.Component.Presets.crypto;
      proc;
      rng = Sim.Rng.create ~seed;
      seed;
      done_irq;
      latency;
      key = 0;
      din = 0;
      dout = 0;
      mask = 0;
      masked_mode = false;
      busy_left = 0;
      done_ = false;
      operations = 0;
    }
  in
  let tick _ =
    if t.busy_left > 0 then begin
      t.busy_left <- t.busy_left - 1;
      if t.busy_left = 0 then begin
        t.dout <- reference ~key:t.key t.din;
        t.done_ <- true;
        t.operations <- t.operations + 1;
        t.done_irq ()
      end
    end;
    if t.busy_left > 0 then Power.Component.count_active t.component
    else Sim.Kernel.park proc
  in
  Sim.Kernel.bind proc tick;
  t

let busy t = t.busy_left > 0

let read t ~addr ~width:_ =
  Power.Component.access t.component;
  match addr - t.cfg.Ec.Slave_cfg.base with
  | off when off = status_off ->
    (if busy t then 1 else 0) lor if t.done_ then 2 else 0
  | off when off = dout_off ->
    if t.masked_mode then begin
      t.mask <- Sim.Rng.bits t.rng 32;
      t.dout lxor t.mask
    end
    else t.dout
  | off when off = mask_off -> t.mask
  | off when off = ctrl_off -> if t.masked_mode then 2 else 0
  | off when off = din_off -> t.din
  | _ -> 0

let write t ~addr ~width:_ ~value =
  Power.Component.access t.component;
  match addr - t.cfg.Ec.Slave_cfg.base with
  | off when off = key_off -> t.key <- value
  | off when off = din_off -> t.din <- value
  | off when off = ctrl_off ->
    t.masked_mode <- value land 2 = 2;
    if value land 1 = 1 && not (busy t) then begin
      t.busy_left <- t.latency;
      t.done_ <- false;
      Sim.Kernel.unpark t.proc
    end
  | _ -> ()

let slave t = Ec.Slave.make ~cfg:t.cfg ~read:(read t) ~write:(write t)
let component t = t.component
let operations t = t.operations

let reset t =
  Sim.Rng.reseed t.rng ~seed:t.seed;
  t.key <- 0;
  t.din <- 0;
  t.dout <- 0;
  t.mask <- 0;
  t.masked_mode <- false;
  t.busy_left <- 0;
  t.done_ <- false;
  t.operations <- 0;
  Sim.Kernel.park t.proc;
  Power.Component.reset t.component

let block_trace ~base ~blocks =
  if blocks < 0 then invalid_arg "Soc.Crypto.block_trace: blocks < 0";
  let key = Ec.Trace.item ~gap:0 (Ec.Txn.single_write ~id:0 base ~value:0x5EC2E7) in
  let block i =
    [
      Ec.Trace.item ~gap:1
        (Ec.Txn.single_write ~id:0 (base + 0x04) ~value:(0x1000 + i));
      Ec.Trace.item ~gap:0 (Ec.Txn.single_write ~id:0 (base + 0x08) ~value:1);
      Ec.Trace.item ~gap:16 (Ec.Txn.single_read ~id:0 (base + 0x0C));
      Ec.Trace.item ~gap:0 (Ec.Txn.single_read ~id:0 (base + 0x10));
    ]
  in
  key :: List.concat (List.init blocks block)
