type t = {
  mutable addr : int;
  mutable addr_next : int;
  mutable be : int;
  mutable be_next : int;
  mutable wdata : int;
  mutable wdata_next : int;
  mutable rdata : int;
  mutable rdata_next : int;
  mutable ctrl : int;  (* bit Ec.Signals.ctrl_index c is wire c *)
  mutable ctrl_next : int;
  mutable sel : int;
  mutable sel_next : int;
  sel_width : int;
}

let addr_mask = (1 lsl Ec.Signals.addr_wires) - 1
let be_mask = (1 lsl Ec.Signals.be_wires) - 1
let data_mask = (1 lsl Ec.Signals.data_wires) - 1

let create ~n_slaves =
  if n_slaves < 1 || n_slaves > 62 then invalid_arg "Rtl.Wires.create";
  { addr = 0; addr_next = 0; be = 0; be_next = 0; wdata = 0; wdata_next = 0;
    rdata = 0; rdata_next = 0; ctrl = 0; ctrl_next = 0; sel = 0;
    sel_next = 0; sel_width = n_slaves }

let set_addr t v = t.addr_next <- v land addr_mask
let set_be t v = t.be_next <- v land be_mask
let set_wdata t v = t.wdata_next <- v land data_mask
let set_rdata t v = t.rdata_next <- v land data_mask
let set_sel t v = t.sel_next <- v land ((1 lsl t.sel_width) - 1)

let set_ctrl t c v =
  let bit = 1 lsl Ec.Signals.ctrl_index c in
  t.ctrl_next <- (if v then t.ctrl_next lor bit else t.ctrl_next land lnot bit)

let clear_ctrl t mask = t.ctrl_next <- t.ctrl_next land lnot mask

let toggle t ~addr ~be ~wdata ~rdata ~ctrl ~sel =
  set_addr t (t.addr lxor addr);
  set_be t (t.be lxor be);
  set_wdata t (t.wdata lxor wdata);
  set_rdata t (t.rdata lxor rdata);
  t.ctrl_next <- (t.ctrl lxor ctrl) land ((1 lsl Ec.Signals.ctrl_count) - 1);
  set_sel t (t.sel lxor sel)

let commit_all t =
  t.addr <- t.addr_next;
  t.be <- t.be_next;
  t.wdata <- t.wdata_next;
  t.rdata <- t.rdata_next;
  t.ctrl <- t.ctrl_next;
  t.sel <- t.sel_next

let reset t =
  t.addr_next <- 0;
  t.be_next <- 0;
  t.wdata_next <- 0;
  t.rdata_next <- 0;
  t.ctrl_next <- 0;
  t.sel_next <- 0;
  commit_all t
