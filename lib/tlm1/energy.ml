type t = {
  (* Old (committed) and new values per signal group; control signals are
     packed into one bit set ordered like Ec.Signals.all_ctrl. *)
  mutable old_addr : int;
  mutable new_addr : int;
  mutable old_be : int;
  mutable new_be : int;
  mutable old_wdata : int;
  mutable new_wdata : int;
  mutable old_rdata : int;
  mutable new_rdata : int;
  mutable old_ctrl : int;
  mutable new_ctrl : int;
  (* Energy per transition per bit, precomputed from the table. *)
  addr_pj : float array;
  be_pj : float array;
  wdata_pj : float array;
  rdata_pj : float array;
  ctrl_pj : float array;
  meter : Power.Meter.t;
  (* The meter's unboxed in-cycle accumulator plus a scratch cell for the
     per-group energy fold: mutable float fields or cross-module float
     calls would box on every store in the per-cycle path. *)
  meter_acc : float array;
  scratch : float array;
  mutable transitions : int;
  (* Signal-group words compared per [end_cycle]: the model's work count. *)
  mutable words : int;
  (* Per-cycle delta observer for the trace compiler: called once per
     [end_cycle] with the old-xor-new word of every signal group, before
     the commit.  Pure integer taps — the float path is untouched, so an
     observed run stays bit-identical to an unobserved one. *)
  mutable observer :
    (addr:int -> be:int -> wdata:int -> rdata:int -> ctrl:int -> unit) option;
}

let create ?(record_profile = false) table =
  let per id = Power.Characterization.energy_per_transition table id in
  let meter = Power.Meter.create ~record_profile () in
  {
    old_addr = 0;
    new_addr = 0;
    old_be = 0;
    new_be = 0;
    old_wdata = 0;
    new_wdata = 0;
    old_rdata = 0;
    new_rdata = 0;
    old_ctrl = 0;
    new_ctrl = 0;
    addr_pj = Array.init Ec.Signals.addr_wires (fun i -> per (Ec.Signals.Addr i));
    be_pj = Array.init Ec.Signals.be_wires (fun i -> per (Ec.Signals.Be i));
    wdata_pj = Array.init Ec.Signals.data_wires (fun i -> per (Ec.Signals.Wdata i));
    rdata_pj = Array.init Ec.Signals.data_wires (fun i -> per (Ec.Signals.Rdata i));
    ctrl_pj = Array.of_list (List.map (fun c -> per (Ec.Signals.Ctrl c)) Ec.Signals.all_ctrl);
    meter;
    meter_acc = Power.Meter.in_cycle_acc meter;
    scratch = Array.make 1 0.0;
    transitions = 0;
    words = 0;
    observer = None;
  }

let set_observer t f = t.observer <- Some f
let clear_observer t = t.observer <- None

let set_ctrl_bit t c v =
  let bit = 1 lsl Ec.Signals.ctrl_index c in
  if v then t.new_ctrl <- t.new_ctrl lor bit
  else t.new_ctrl <- t.new_ctrl land lnot bit

let drive_addr_phase t (txn : Ec.Txn.t) =
  t.new_addr <- txn.Ec.Txn.addr lsr 2;
  t.new_be <- Ec.Txn.byte_enables txn 0;
  set_ctrl_bit t Ec.Signals.Avalid true;
  set_ctrl_bit t Ec.Signals.Instr (txn.Ec.Txn.kind = Ec.Txn.Instruction);
  set_ctrl_bit t Ec.Signals.Write (txn.Ec.Txn.dir = Ec.Txn.Write);
  set_ctrl_bit t Ec.Signals.Burst (txn.Ec.Txn.burst > 1)

let strobe t c = set_ctrl_bit t c true
let set_avalid t v = set_ctrl_bit t Ec.Signals.Avalid v
let drive_rdata t v = t.new_rdata <- v land 0xFFFFFFFF
let drive_wdata t v = t.new_wdata <- v land 0xFFFFFFFF

(* Top-level with the energy accumulated into a scratch float array cell:
   a local [let rec] with a float accumulator would allocate a closure and
   box the float on every recursive call.  Addition order (ascending bit,
   fold from 0.0 per group) matches the original exactly. *)
let rec scan_bits per_bit scratch bits i n =
  if bits = 0 then n
  else begin
    let n =
      if bits land 1 = 1 then begin
        Array.unsafe_set scratch 0
          (Array.unsafe_get scratch 0 +. Array.unsafe_get per_bit i);
        n + 1
      end
      else n
    in
    scan_bits per_bit scratch (bits lsr 1) (i + 1) n
  end

(* Energy of the toggled bits of one signal group. *)
let group_energy t changed per_bit =
  if changed = 0 then 0.0
  else begin
    t.scratch.(0) <- 0.0;
    let n = scan_bits per_bit t.scratch changed 0 0 in
    t.transitions <- t.transitions + n;
    t.scratch.(0)
  end

let strobes_mask =
  List.fold_left
    (fun acc c -> acc lor (1 lsl Ec.Signals.ctrl_index c))
    0
    [ Ec.Signals.Ardy; Ec.Signals.Rdval; Ec.Signals.Wdrdy; Ec.Signals.Rberr;
      Ec.Signals.Wberr; Ec.Signals.Bfirst; Ec.Signals.Blast ]

let end_cycle t =
  (match t.observer with
  | None -> ()
  | Some f ->
    f
      ~addr:(t.old_addr lxor t.new_addr)
      ~be:(t.old_be lxor t.new_be)
      ~wdata:(t.old_wdata lxor t.new_wdata)
      ~rdata:(t.old_rdata lxor t.new_rdata)
      ~ctrl:(t.old_ctrl lxor t.new_ctrl));
  let pj =
    group_energy t (t.old_addr lxor t.new_addr) t.addr_pj
    +. group_energy t (t.old_be lxor t.new_be) t.be_pj
    +. group_energy t (t.old_wdata lxor t.new_wdata) t.wdata_pj
    +. group_energy t (t.old_rdata lxor t.new_rdata) t.rdata_pj
    +. group_energy t (t.old_ctrl lxor t.new_ctrl) t.ctrl_pj
  in
  Array.unsafe_set t.meter_acc 0 (Array.unsafe_get t.meter_acc 0 +. pj);
  t.words <- t.words + 5;
  Power.Meter.end_cycle t.meter;
  t.old_addr <- t.new_addr;
  t.old_be <- t.new_be;
  t.old_wdata <- t.new_wdata;
  t.old_rdata <- t.new_rdata;
  t.old_ctrl <- t.new_ctrl;
  (* One-cycle strobes fall back to zero unless re-asserted next cycle. *)
  t.new_ctrl <- t.new_ctrl land lnot strobes_mask

let reset t =
  t.old_addr <- 0;
  t.new_addr <- 0;
  t.old_be <- 0;
  t.new_be <- 0;
  t.old_wdata <- 0;
  t.new_wdata <- 0;
  t.old_rdata <- 0;
  t.new_rdata <- 0;
  t.old_ctrl <- 0;
  t.new_ctrl <- 0;
  t.scratch.(0) <- 0.0;
  t.transitions <- 0;
  t.words <- 0;
  t.observer <- None;
  Power.Meter.reset t.meter

let total_pj t = Power.Meter.total_pj t.meter
let meter t = t.meter
let transitions_total t = t.transitions
let transition_words t = t.words
