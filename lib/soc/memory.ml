type t = {
  cfg : Ec.Slave_cfg.t;
  bytes : Bytes.t;
  component : Power.Component.t;
  mutable reads : int;
  mutable writes : int;
  (* Watermarks of the written byte range, so [reset] zero-fills only
     what was touched instead of the whole image (a 256 KiB ROM would
     otherwise dominate pooled-session reset cost).  [dirty_hi] is
     exclusive; an untouched memory has [dirty_lo > dirty_hi]. *)
  mutable dirty_lo : int;
  mutable dirty_hi : int;
}

(* A memory is active in every cycle it was accessed since the previous
   rising edge.  It has no per-cycle process: each access marks the edge
   that will count it ({!Power.Component.mark}), and the kernel slot
   keeps that edge where the memory sits in the edge order.  Without a
   kernel the slot sits on a private, never-stepped one: no cycles, only
   accesses. *)
let create ?kernel ?(component = Power.Component.params ()) cfg =
  let kernel = match kernel with Some k -> k | None -> Sim.Kernel.create () in
  let name = cfg.Ec.Slave_cfg.name in
  let slot = Sim.Kernel.slot kernel ~name:(name ^ "-power") in
  {
    cfg;
    bytes = Bytes.make cfg.Ec.Slave_cfg.size '\000';
    component = Power.Component.create ~name ~slot component;
    reads = 0;
    writes = 0;
    dirty_lo = max_int;
    dirty_hi = 0;
  }

let offset t addr =
  let off = addr - t.cfg.Ec.Slave_cfg.base in
  assert (off >= 0 && off < t.cfg.Ec.Slave_cfg.size);
  off

let[@inline] mark_dirty t lo hi =
  if lo < t.dirty_lo then t.dirty_lo <- lo;
  if hi > t.dirty_hi then t.dirty_hi <- hi

let poke8 t ~addr v =
  let off = offset t addr in
  mark_dirty t off (off + 1);
  Bytes.set_uint8 t.bytes off (v land 0xFF)

let peek8 t ~addr = Bytes.get_uint8 t.bytes (offset t addr)

let poke32 t ~addr v =
  assert (addr mod 4 = 0);
  let off = offset t addr in
  mark_dirty t off (off + 4);
  Bytes.set_int32_le t.bytes off (Int32.of_int (v land 0xFFFFFFFF))

let peek32 t ~addr =
  assert (addr mod 4 = 0);
  Int32.to_int (Bytes.get_int32_le t.bytes (offset t addr)) land 0xFFFFFFFF

let load_words t ~addr words =
  Array.iteri (fun i w -> poke32 t ~addr:(addr + (4 * i)) w) words

let load_program t (p : Asm.program) = load_words t ~addr:p.Asm.origin p.Asm.words

let mark_access t =
  Power.Component.mark t.component;
  Power.Component.access t.component

let bus_read t ~addr ~width =
  mark_access t;
  t.reads <- t.reads + 1;
  match (width : Ec.Txn.width) with
  | Ec.Txn.W8 -> peek8 t ~addr
  | Ec.Txn.W16 ->
    assert (addr mod 2 = 0);
    peek8 t ~addr lor (peek8 t ~addr:(addr + 1) lsl 8)
  | Ec.Txn.W32 -> peek32 t ~addr

let bus_write t ~addr ~width ~value =
  mark_access t;
  t.writes <- t.writes + 1;
  match (width : Ec.Txn.width) with
  | Ec.Txn.W8 -> poke8 t ~addr value
  | Ec.Txn.W16 ->
    assert (addr mod 2 = 0);
    poke8 t ~addr (value land 0xFF);
    poke8 t ~addr:(addr + 1) ((value lsr 8) land 0xFF)
  | Ec.Txn.W32 -> poke32 t ~addr value

let slave t = Ec.Slave.make ~cfg:t.cfg ~read:(bus_read t) ~write:(bus_write t)
let cfg t = t.cfg
let component t = t.component
let reads t = t.reads
let writes t = t.writes

let reset t =
  if t.dirty_lo < t.dirty_hi then
    Bytes.fill t.bytes t.dirty_lo (t.dirty_hi - t.dirty_lo) '\000';
  t.dirty_lo <- max_int;
  t.dirty_hi <- 0;
  t.reads <- 0;
  t.writes <- 0;
  Power.Component.reset t.component
