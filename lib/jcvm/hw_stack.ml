let to_short v =
  let v = v land 0xFFFF in
  if v > 32767 then v - 65536 else v

type t = {
  config : Configs.t;
  data : int array;
  mutable top : int;
  mutable byte_lo_latch : int;  (* W8 push: pending low byte *)
  mutable byte_hi_latch : int;  (* W8 pop: high byte of the popped short *)
  mutable data_latch : int;  (* shared cmd/data organization *)
  mutable underflows : int;
}

let create config =
  {
    config;
    data = Array.make 256 0;
    top = 0;
    byte_lo_latch = 0;
    byte_hi_latch = 0;
    data_latch = 0;
    underflows = 0;
  }

let depth t = t.top
let contents t = List.init t.top (fun i -> t.data.(t.top - 1 - i))
let underflows t = t.underflows
let push t v =
  if t.top < Array.length t.data then begin
    t.data.(t.top) <- to_short v;
    t.top <- t.top + 1
  end

let pop t =
  if t.top = 0 then begin
    t.underflows <- t.underflows + 1;
    0
  end
  else begin
    t.top <- t.top - 1;
    t.data.(t.top)
  end

let peek t = if t.top = 0 then 0 else t.data.(t.top - 1)

(* Register index and byte lane of a bus access. *)
let locate t addr =
  let off = addr - t.config.Configs.base in
  (off / t.config.Configs.stride, off mod t.config.Configs.stride)

let read t ~addr ~width:_ =
  let reg, lane = locate t addr in
  let cfg = t.config in
  if reg = Configs.data_reg then begin
    match cfg.Configs.width, cfg.Configs.reg_org with
    | _, Configs.Shared_cmd_data -> t.data_latch land 0xFFFF
    | Ec.Txn.W8, Configs.Dedicated ->
      if lane = 0 then begin
        (* Reading the low byte pops and latches the high byte. *)
        let v = pop t land 0xFFFF in
        t.byte_hi_latch <- v lsr 8;
        v land 0xFF
      end
      else t.byte_hi_latch
    | Ec.Txn.W16, Configs.Dedicated -> pop t land 0xFFFF
    | Ec.Txn.W32, Configs.Dedicated ->
      if cfg.Configs.packed32 then begin
        if t.top >= 2 then begin
          (* Packed double pop: top short in the low half. *)
          let first = pop t land 0xFFFF in
          let second = pop t land 0xFFFF in
          first lor (second lsl 16)
        end
        else pop t land 0xFFFF
      end
      else pop t land 0xFFFF
  end
  else if reg = Configs.count_reg then t.top
  else if reg = Configs.top_reg then peek t land 0xFFFF
  else 0

let write t ~addr ~width:_ ~value =
  let reg, lane = locate t addr in
  let cfg = t.config in
  if reg = Configs.data_reg then begin
    match cfg.Configs.width, cfg.Configs.reg_org with
    | _, Configs.Shared_cmd_data -> t.data_latch <- value land 0xFFFF
    | Ec.Txn.W8, Configs.Dedicated ->
      if lane = 0 then t.byte_lo_latch <- value land 0xFF
      else push t (((value land 0xFF) lsl 8) lor t.byte_lo_latch)
    | Ec.Txn.W16, Configs.Dedicated -> push t value
    | Ec.Txn.W32, Configs.Dedicated ->
      if cfg.Configs.packed32 then begin
        (* Packed double push: low half first (deeper), high half on top. *)
        push t (value land 0xFFFF);
        push t ((value lsr 16) land 0xFFFF)
      end
      else push t (value land 0xFFFF)
  end
  else if reg = Configs.cmd_reg then begin
    match cfg.Configs.reg_org with
    | Configs.Shared_cmd_data ->
      if value land 0xFF = Configs.cmd_push then push t t.data_latch
      else if value land 0xFF = Configs.cmd_pop then
        t.data_latch <- pop t land 0xFFFF
    | Configs.Dedicated -> ()
  end
  else if reg = Configs.top_reg && cfg.Configs.packed32 then
    (* Single-push register of the packed configuration: only the low
       short enters the stack (used to flush a lone buffered value). *)
    push t (value land 0xFFFF)

let slave t =
  let cfg =
    Ec.Slave_cfg.make ~name:("hwstack:" ^ t.config.Configs.name)
      ~base:t.config.Configs.base
      ~size:(Configs.window_size t.config)
      ()
  in
  Ec.Slave.make ~cfg ~read:(read t) ~write:(write t)

let reset t =
  Array.fill t.data 0 (Array.length t.data) 0;
  t.top <- 0;
  t.byte_lo_latch <- 0;
  t.byte_hi_latch <- 0;
  t.data_latch <- 0;
  t.underflows <- 0
