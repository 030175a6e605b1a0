(* Compiled trace plans (DESIGN.md section 14).

   A plan is the one-shot residue of an interpreted replay: routing,
   wait-state schedules and burst decisions have already been played out
   by the bus model, and what remains is the flat integer record of what
   the energy estimator would see — the wire image's per-cycle toggle
   words at the gate level and layer 1, the lump event stream at layers
   2 and 3 — plus the table-independent scalar results of the run.
   Re-evaluating a plan under a new characterization table or parameter
   point is then an array sweep (see Eval), with no kernel, queues or
   slave calls involved. *)

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

type meta = {
  level : Hier.Level.t;
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  transitions : int;  (** 0 at layers 2 and 3, as interpreted *)
  component_pj : float;
      (** platform component energy of the run — independent of the
          characterization table, so captured once at compile time *)
}

(* The gate level and layer 1: sparse parallel arrays, one row per
   closed cycle in which a wire group toggled. *)
type wire_data = {
  d_cycle : int array;  (* ascending closed-cycle index of each row *)
  d_addr : int array;  (* old lxor new, per group *)
  d_be : int array;
  d_wdata : int array;
  d_rdata : int array;
  d_ctrl : int array;
  d_sel : int array;
}

(* Layer 2: the lump event stream.  Address lumps depend only on the
   parameter point; data lumps additionally carry the burst shape and
   the exact inter-beat Hamming distances (flattened into [pops]).
   Events of one cycle stay adjacent so the evaluator can reproduce the
   meter's cycle grouping exactly. *)
type l2_data = {
  ev_cycle : int array;
  ev_kind : int array;  (* 0 = address lump, 1 = data lump *)
  ev_dir : int array;  (* 0 = read, 1 = write *)
  ev_burst : int array;
  ev_pop_off : int array;  (* start of this event's run in [pops] *)
  pops : int array;  (* burst-1 inter-beat popcounts per data lump *)
}

type body = Wires of wire_data | L2 of l2_data
type t = { meta : meta; body : body }

let at_level level t =
  if t.meta.level = level then t else { t with meta = { t.meta with level } }

(* --- recorders: what the bus and energy-model taps feed -------------- *)

type wire_recorder = {
  mutable w_cycle : int;
  r_cycle : Ivec.t;
  r_addr : Ivec.t;
  r_be : Ivec.t;
  r_wdata : Ivec.t;
  r_rdata : Ivec.t;
  r_ctrl : Ivec.t;
  r_sel : Ivec.t;
}

let wire_recorder () =
  {
    w_cycle = 0;
    r_cycle = Ivec.create ();
    r_addr = Ivec.create ();
    r_be = Ivec.create ();
    r_wdata = Ivec.create ();
    r_rdata = Ivec.create ();
    r_ctrl = Ivec.create ();
    r_sel = Ivec.create ();
  }

(* The Rtl.Bus tap: one call per falling edge, before the estimator
   commits the closing cycle's wires. *)
let wire_observe r (w : Rtl.Wires.t) =
  let open Rtl.Wires in
  let addr = w.addr lxor w.addr_next and be = w.be lxor w.be_next in
  let wdata = w.wdata lxor w.wdata_next and rdata = w.rdata lxor w.rdata_next in
  let ctrl = w.ctrl lxor w.ctrl_next and sel = w.sel lxor w.sel_next in
  if addr lor be lor wdata lor rdata lor ctrl lor sel <> 0 then begin
    Ivec.push r.r_cycle r.w_cycle;
    Ivec.push r.r_addr addr;
    Ivec.push r.r_be be;
    Ivec.push r.r_wdata wdata;
    Ivec.push r.r_rdata rdata;
    Ivec.push r.r_ctrl ctrl;
    Ivec.push r.r_sel sel
  end;
  r.w_cycle <- r.w_cycle + 1

let wire_finish r =
  Wires
    {
      d_cycle = Ivec.to_array r.r_cycle;
      d_addr = Ivec.to_array r.r_addr;
      d_be = Ivec.to_array r.r_be;
      d_wdata = Ivec.to_array r.r_wdata;
      d_rdata = Ivec.to_array r.r_rdata;
      d_ctrl = Ivec.to_array r.r_ctrl;
      d_sel = Ivec.to_array r.r_sel;
    }

type l2_recorder = {
  mutable l2_cycle : int;
  e_cycle : Ivec.t;
  e_kind : Ivec.t;
  e_dir : Ivec.t;
  e_burst : Ivec.t;
  e_pop_off : Ivec.t;
  e_pops : Ivec.t;
}

let l2_recorder () =
  {
    l2_cycle = 0;
    e_cycle = Ivec.create ();
    e_kind = Ivec.create ();
    e_dir = Ivec.create ();
    e_burst = Ivec.create ();
    e_pop_off = Ivec.create ();
    e_pops = Ivec.create ();
  }

let l2_observe r (ev : Tlm2.Energy.event) =
  match ev with
  | Tlm2.Energy.Cycle -> r.l2_cycle <- r.l2_cycle + 1
  | Tlm2.Energy.Addr_lump _ ->
    Ivec.push r.e_cycle r.l2_cycle;
    Ivec.push r.e_kind 0;
    Ivec.push r.e_dir 0;
    Ivec.push r.e_burst 0;
    Ivec.push r.e_pop_off r.e_pops.Ivec.n
  | Tlm2.Energy.Data_lump txn ->
    Ivec.push r.e_cycle r.l2_cycle;
    Ivec.push r.e_kind 1;
    Ivec.push r.e_dir (match txn.Ec.Txn.dir with Ec.Txn.Read -> 0 | Ec.Txn.Write -> 1);
    Ivec.push r.e_burst txn.Ec.Txn.burst;
    Ivec.push r.e_pop_off r.e_pops.Ivec.n;
    for i = 1 to txn.Ec.Txn.burst - 1 do
      Ivec.push r.e_pops
        (Sim.Bits.popcount (txn.Ec.Txn.data.(i) lxor txn.Ec.Txn.data.(i - 1)))
    done

let l2_finish r =
  L2
    {
      ev_cycle = Ivec.to_array r.e_cycle;
      ev_kind = Ivec.to_array r.e_kind;
      ev_dir = Ivec.to_array r.e_dir;
      ev_burst = Ivec.to_array r.e_burst;
      ev_pop_off = Ivec.to_array r.e_pop_off;
      pops = Ivec.to_array r.e_pops;
    }

(* --- fabric plans (DESIGN.md section 18) ------------------------------ *)

(* The per-master bucket of an interpreted fabric run is an ordered float
   fold over three kinds of add: bridge-crossing energy on acceptance,
   one closed near-bus cycle per falling edge, one closed far-bus cycle.
   The op stream records that fold per master as pure integers — a
   crossing's burst, a sample's closed-cycle index into the bus body —
   so evaluation replays the identical float sequence from any
   characterization table. *)

let op_near = 0
let op_far = 1
let op_cross = 2

type fabric_meta = {
  f_masters : int;
  f_cycles : int;
  f_txns : int array;
  f_beats : int array;
  f_errors : int array;
  f_grants : int array;
  f_crossings : int;
  f_cross_pj_per_beat : float;
  f_component_pj : float;
}

type fabric = {
  f_meta : fabric_meta;
  near : t;
  far_plan : t option;
  op_kind : int array;  (* per-master streams, concatenated *)
  op_arg : int array;
  op_off : int array;  (* masters + 1 offsets into op_kind/op_arg *)
  cross_bursts : int array;  (* chronological, for the bridge_pj fold *)
}

type fabric_recorder = {
  fo_kind : Ivec.t array;  (* one stream per master *)
  fo_arg : Ivec.t array;
  fo_cross : Ivec.t;
}

let fabric_recorder ~masters =
  {
    fo_kind = Array.init masters (fun _ -> Ivec.create ());
    fo_arg = Array.init masters (fun _ -> Ivec.create ());
    fo_cross = Ivec.create ();
  }

let fabric_observer r =
  {
    Ec.Fabric.obs_cross =
      (fun ~master ~burst ->
        Ivec.push r.fo_kind.(master) op_cross;
        Ivec.push r.fo_arg.(master) burst;
        Ivec.push r.fo_cross burst);
    obs_near =
      (fun ~owner ~cycle ->
        Ivec.push r.fo_kind.(owner) op_near;
        Ivec.push r.fo_arg.(owner) cycle);
    obs_far =
      (fun ~owner ~cycle ->
        Ivec.push r.fo_kind.(owner) op_far;
        Ivec.push r.fo_arg.(owner) cycle);
  }

let fabric_finish r ~meta ~near ~far_plan =
  let masters = Array.length r.fo_kind in
  let off = Array.make (masters + 1) 0 in
  for m = 0 to masters - 1 do
    off.(m + 1) <- off.(m) + r.fo_kind.(m).Ivec.n
  done;
  let op_kind = Array.make off.(masters) 0 in
  let op_arg = Array.make off.(masters) 0 in
  for m = 0 to masters - 1 do
    Array.blit r.fo_kind.(m).Ivec.a 0 op_kind off.(m) r.fo_kind.(m).Ivec.n;
    Array.blit r.fo_arg.(m).Ivec.a 0 op_arg off.(m) r.fo_arg.(m).Ivec.n
  done;
  {
    f_meta = meta;
    near;
    far_plan;
    op_kind;
    op_arg;
    op_off = off;
    cross_bursts = Ivec.to_array r.fo_cross;
  }
