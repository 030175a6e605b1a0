(* The gate-level estimator (diesel.mli).  The table path is the lane
   kernel's gate-level close (lib/power/lane_kernel.c), one C call per
   cycle over the arrays below; the reference path is the OCaml oracle
   it is checked against. *)

(* [close w tables sums m counts] prices the cycle of the wires [w] from
   the precomputed [tables] into the per-wire and total [sums], the
   meter's in-cycle energy [m.(0)] and the work [counts], then commits
   the wires; it returns 0, or a nonzero status for a short array or a
   word wider than its group, refused before anything is written.  It
   reads [Wires.t] by field position. *)
external close :
  Wires.t -> float array -> float array -> float array -> int array -> int
  = "lane_close_gate"
[@@noalloc]

type t = {
  params : Params.t;
  wires : Wires.t;
  meter : Power.Meter.t;
  reference : bool;
  (* Precomputed energy tables, wires by Ec.Signals.index, built once in
     [create] so no cycle touches Power.Units, Ec.Signals.of_index or the
     capacitance table: [2i] the falling, [2i + 1] the rising edge of wire
     i; from [2 n_wires], [8i + code] the share of the coupling energy of
     the adjacent pair (i, i + 1) that each of its two wires gets (code
     bits 0 and 1 say which wires of the pair toggled, bit 2 whether
     their new values differ — for a pair that both toggled, opposite
     directions; 0 where the pair couples nothing); from [10 n_wires], the
     internal cost per address, read-data, control and select toggle,
     then the leakage per cycle. *)
  tables : float array;
  (* The meter's in-cycle accumulator (index 0), shared so the hot path
     adds without a cross-module call boxing the float. *)
  meter_acc : float array;
  (* Interface energy per wire, then the interface and internal totals:
     unboxed floats — mutable float fields of this mixed record would
     box on every store. *)
  sums : float array;
  (* Transitions per wire, then the work counts: signal words compared
     and wire bits visited. *)
  counts : int array;
}

let n_wires = Ec.Signals.count
let iface_at = n_wires
let internal_at = n_wires + 1
let words_at = n_wires
let bits_at = n_wires + 1

let create ?(params = Params.default) ?(record_profile = false)
    ?(reference = false) wires =
  let meter = Power.Meter.create ~record_profile () in
  let self i =
    Power.Units.pj_per_transition
      ~capacitance_ff:(Ec.Signals.default_capacitance_ff (Ec.Signals.of_index i))
      ~vdd:params.Params.vdd
  in
  let edge k =
    self (k / 2)
    *. (if k land 1 = 1 then params.Params.slope_rise
        else params.Params.slope_fall)
  in
  let pair_half k =
    let lat = self (k / 8) *. params.Params.coupling_ratio in
    let pj =
      match k land 7 with
      | 0 | 4 -> 0.0
      | 3 -> lat *. params.Params.same_relief
      | 7 -> lat *. params.Params.opposite_factor
      | _ -> lat
    in
    if pj > 0.0 then pj /. 2.0 else 0.0
  in
  let costs =
    Params.
      [| params.decoder_pj_per_addr_toggle +. params.glitch_pj_per_hamming;
         params.mux_pj_per_rdata_toggle; params.fsm_pj_per_ctrl_toggle;
         params.sel_pj_per_toggle; params.leakage_pj_per_cycle |]
  in
  {
    params;
    wires;
    meter;
    meter_acc = Power.Meter.in_cycle_acc meter;
    reference;
    tables =
      Array.concat
        [ Array.init (2 * n_wires) edge; Array.init (8 * n_wires) pair_half;
          costs ];
    sums = Array.make (n_wires + 2) 0.0;
    counts = Array.make (n_wires + 2) 0;
  }

let[@inline] add_interface t index pj =
  let s = t.sums in
  Array.unsafe_set s index (Array.unsafe_get s index +. pj);
  Array.unsafe_set s iface_at (Array.unsafe_get s iface_at +. pj);
  Array.unsafe_set t.meter_acc 0 (Array.unsafe_get t.meter_acc 0 +. pj)

let[@inline] add_internal t pj =
  let s = t.sums in
  Array.unsafe_set s internal_at (Array.unsafe_get s internal_at +. pj);
  Array.unsafe_set t.meter_acc 0 (Array.unsafe_get t.meter_acc 0 +. pj)

let add_count t i k = t.counts.(i) <- t.counts.(i) + k

(* ------------------------------------------------------------------ *)
(* Reference (naive) observation path, kept for validation.            *)
(* ------------------------------------------------------------------ *)

(* Self energy of one edge on one wire. *)
let edge_pj t id ~rising =
  let base =
    Power.Units.pj_per_transition
      ~capacitance_ff:(Ec.Signals.default_capacitance_ff id)
      ~vdd:t.params.Params.vdd
  in
  base *. (if rising then t.params.Params.slope_rise else t.params.Params.slope_fall)

(* Coupling energy between one adjacent wire pair of a bus.  [a] and [b]
   are -1 (falling), 0 (stable) or 1 (rising). *)
let coupling_pj t id a b =
  if a = 0 && b = 0 then 0.0
  else begin
    let self =
      Power.Units.pj_per_transition
        ~capacitance_ff:(Ec.Signals.default_capacitance_ff id)
        ~vdd:t.params.Params.vdd
    in
    let lateral = self *. t.params.Params.coupling_ratio in
    if a <> 0 && b <> 0 then
      if a = b then lateral *. t.params.Params.same_relief
      else lateral *. t.params.Params.opposite_factor
    else lateral
  end

(* Per-bit movement of a wire group before commit: -1, 0 or 1 per bit. *)
let movements ~width cur nxt =
  Array.init width (fun i -> ((nxt lsr i) land 1) - ((cur lsr i) land 1))

(* Every bit and every adjacent pair of the group is visited. *)
let observe_group_reference t base_id ~width cur nxt =
  let base = Ec.Signals.index base_id in
  let moves = movements ~width cur nxt in
  add_count t words_at 1;
  add_count t bits_at ((2 * width) - 1);
  let transitions = ref 0 in
  for i = 0 to width - 1 do
    if moves.(i) <> 0 then begin
      incr transitions;
      add_count t (base + i) 1;
      add_interface t (base + i)
        (edge_pj t (Ec.Signals.of_index (base + i)) ~rising:(moves.(i) > 0))
    end
  done;
  (* Lateral coupling between adjacent wires of multi-bit buses, half
     attributed to each wire of the pair. *)
  for i = 0 to width - 2 do
    let pj = coupling_pj t (Ec.Signals.of_index (base + i)) moves.(i) moves.(i + 1) in
    if pj > 0.0 then begin
      add_interface t (base + i) (pj /. 2.0);
      add_interface t (base + i + 1) (pj /. 2.0)
    end
  done;
  !transitions

(* Each control wire is its own width-1 group; the internal nets cost
   is added for every net, toggled or not. *)
let observe_reference t =
  let p = t.params and w = t.wires in
  let group = observe_group_reference t in
  let addr_toggles =
    group (Ec.Signals.Addr 0) ~width:Ec.Signals.addr_wires w.addr w.addr_next
  in
  ignore (group (Ec.Signals.Be 0) ~width:Ec.Signals.be_wires w.be w.be_next);
  ignore
    (group (Ec.Signals.Wdata 0) ~width:Ec.Signals.data_wires w.wdata
       w.wdata_next);
  let rdata_toggles =
    group (Ec.Signals.Rdata 0) ~width:Ec.Signals.data_wires w.rdata
      w.rdata_next
  in
  let ctrl_toggles =
    List.fold_left
      (fun n c ->
        let i = Ec.Signals.ctrl_index c in
        n + group (Ec.Signals.Ctrl c) ~width:1 (w.ctrl lsr i) (w.ctrl_next lsr i))
      0 Ec.Signals.all_ctrl
  in
  let sel_toggles =
    Array.fold_left
      (fun n m -> if m <> 0 then n + 1 else n)
      0
      (movements ~width:w.sel_width w.sel w.sel_next)
  in
  add_count t words_at 1;
  add_count t bits_at w.sel_width;
  (* Internal nets: decoder activity plus transient glitching follow the
     address bus, the read mux follows the read data bus, the control FSM
     follows the handshake wires, the select lines are explicit. *)
  add_internal t
    (float_of_int addr_toggles
    *. (p.Params.decoder_pj_per_addr_toggle +. p.Params.glitch_pj_per_hamming));
  add_internal t (float_of_int rdata_toggles *. p.Params.mux_pj_per_rdata_toggle);
  add_internal t (float_of_int ctrl_toggles *. p.Params.fsm_pj_per_ctrl_toggle);
  add_internal t (float_of_int sel_toggles *. p.Params.sel_pj_per_toggle);
  add_internal t p.Params.leakage_pj_per_cycle

let observe_and_commit t =
  if t.reference then begin
    observe_reference t;
    Wires.commit_all t.wires
  end
  else if close t.wires t.tables t.sums t.meter_acc t.counts <> 0 then
    invalid_arg "Rtl.Diesel.observe_and_commit";
  Power.Meter.end_cycle t.meter

let total_pj t = t.sums.(iface_at) +. t.sums.(internal_at)
let interface_pj t = t.sums.(iface_at)
let internal_pj t = t.sums.(internal_at)
let meter t = t.meter
let per_signal_energy_pj t = Array.sub t.sums 0 n_wires
let per_signal_transitions t = Array.sub t.counts 0 n_wires
let words_scanned t = t.counts.(words_at)
let bits_visited t = t.counts.(bits_at)

let transitions_total t =
  let total = ref 0 in
  for i = 0 to n_wires - 1 do
    total := !total + t.counts.(i)
  done;
  !total

let reset t =
  Array.fill t.sums 0 (n_wires + 2) 0.0;
  Array.fill t.counts 0 (n_wires + 2) 0;
  Power.Meter.reset t.meter

let characterize ~name t =
  Power.Characterization.derive ~name ~energy_pj:(per_signal_energy_pj t)
    ~transitions:(per_signal_transitions t)
