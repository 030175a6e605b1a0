type t = {
  params : Params.t;
  wires : Wires.t;
  meter : Power.Meter.t;
  reference : bool;
  (* Precomputed per-wire energy tables, indexed by Ec.Signals.index.
     Built once in [create] so the per-cycle observation never touches
     Power.Units, Ec.Signals.of_index or the capacitance table. *)
  edge_pj : float array;  (* [2i] falling, [2i + 1] rising edge of wire i *)
  (* [8i + code]: the share of the coupling energy of the adjacent pair
     (i, i + 1) that each of its two wires gets.  Code bits 0 and 1 say
     which wires of the pair toggled, bit 2 whether their new values
     differ — for a pair that both toggled, opposite directions.  0 where
     the pair couples nothing. *)
  pair_half_pj : float array;
  (* The meter's in-cycle accumulator (index 0), shared so the hot path
     adds without a cross-module call boxing the float. *)
  meter_acc : float array;
  per_signal_pj : float array;
  per_signal_transitions : int array;
  (* interface total, internal total: an unboxed float pair — mutable
     float fields of this mixed record would box on every store. *)
  totals : float array;
  (* Work counts: signal words compared and wire bits visited. *)
  mutable words : int;
  mutable bits : int;
}

let addr_base = Ec.Signals.index (Ec.Signals.Addr 0)
let be_base = Ec.Signals.index (Ec.Signals.Be 0)
let wdata_base = Ec.Signals.index (Ec.Signals.Wdata 0)
let rdata_base = Ec.Signals.index (Ec.Signals.Rdata 0)
let ctrl_base = Ec.Signals.index (Ec.Signals.Ctrl Ec.Signals.Avalid)

(* The [width - 1] adjacent pairs of a bus, pair i at bit i. *)
let pairs_mask width = (1 lsl (width - 1)) - 1
let addr_pairs = pairs_mask Ec.Signals.addr_wires
let be_pairs = pairs_mask Ec.Signals.be_wires
let data_pairs = pairs_mask Ec.Signals.data_wires

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
  {
    params;
    wires;
    meter;
    meter_acc = Power.Meter.in_cycle_acc meter;
    reference;
    edge_pj = Array.init (2 * Ec.Signals.count) edge;
    pair_half_pj = Array.init (8 * Ec.Signals.count) pair_half;
    per_signal_pj = Array.make Ec.Signals.count 0.0;
    per_signal_transitions = Array.make Ec.Signals.count 0;
    totals = Array.make 2 0.0;
    words = 0;
    bits = 0;
  }

let[@inline] add_interface t index pj =
  Array.unsafe_set t.per_signal_pj index
    (Array.unsafe_get t.per_signal_pj index +. pj);
  Array.unsafe_set t.totals 0 (Array.unsafe_get t.totals 0 +. pj);
  Array.unsafe_set t.meter_acc 0 (Array.unsafe_get t.meter_acc 0 +. pj)

let[@inline] add_internal t pj =
  Array.unsafe_set t.totals 1 (Array.unsafe_get t.totals 1 +. pj);
  Array.unsafe_set t.meter_acc 0 (Array.unsafe_get t.meter_acc 0 +. pj)

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
  t.words <- t.words + 1;
  t.bits <- t.bits + (2 * width) - 1;
  let transitions = ref 0 in
  for i = 0 to width - 1 do
    if moves.(i) <> 0 then begin
      incr transitions;
      t.per_signal_transitions.(base + i) <- t.per_signal_transitions.(base + i) + 1;
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
  t.words <- t.words + 1;
  t.bits <- t.bits + w.sel_width;
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

(* ------------------------------------------------------------------ *)
(* Table path: zero allocation, only the toggled bits are visited.     *)
(* ------------------------------------------------------------------ *)

(* The reference path's arithmetic in its order — self energies by
   ascending bit, then coupling by ascending pair, the pair's share onto
   the lower then the upper wire — so the accumulated floats are bit for
   bit equal.  Only the derivation of each addend changed: table lookups
   indexed by the toggle and new-value bits instead of capacitance math,
   and a lowest-set-bit walk over the [cur lxor nxt] toggle word instead
   of a movements array.  A pair that couples nothing, or an internal
   net that did not toggle, adds +0.0 in the reference path; skipping it
   (or adding a 0.0 table entry) leaves every accumulator bit-identical,
   since none starts at or can reach -0.0.  The scans are top-level with
   explicit arguments: a local [let rec] would capture its environment
   and allocate a closure per cycle. *)

(* Self energy of each set bit of [bits], lowest first; returns the
   transitions counted so far. *)
let rec self_scan t base nxt bits n =
  if bits = 0 then n
  else begin
    let low = bits land -bits in
    let i = Sim.Bits.popcount (low - 1) in
    let gi = base + i in
    Array.unsafe_set t.per_signal_transitions gi
      (Array.unsafe_get t.per_signal_transitions gi + 1);
    add_interface t gi
      (Array.unsafe_get t.edge_pj ((2 * gi) + ((nxt lsr i) land 1)));
    self_scan t base nxt (bits lxor low) (n + 1)
  end

(* Coupling of each pair set in [pairs], lowest first; returns the pairs
   visited so far. *)
let rec pair_scan t base nxt changed pairs n =
  if pairs = 0 then n
  else begin
    let low = pairs land -pairs in
    let i = Sim.Bits.popcount (low - 1) in
    let gi = base + i in
    let code =
      ((changed lsr i) land 3) lor (((nxt lxor (nxt lsr 1)) lsr i) land 1) lsl 2
    in
    let half = Array.unsafe_get t.pair_half_pj ((8 * gi) + code) in
    add_interface t gi half;
    add_interface t (gi + 1) half;
    pair_scan t base nxt changed (pairs lxor low) (n + 1)
  end

(* One multi-bit bus; [pairs] masks its adjacent pairs.  Returns its
   toggle count. *)
let observe_bus t base pairs cur nxt =
  let changed = cur lxor nxt in
  if changed = 0 then 0
  else begin
    let toggles = self_scan t base nxt changed 0 in
    let touched = (changed lor (changed lsr 1)) land pairs in
    t.bits <- t.bits + toggles + pair_scan t base nxt changed touched 0;
    toggles
  end

let observe_tables t =
  let p = t.params and w = t.wires in
  let addr_toggles = observe_bus t addr_base addr_pairs w.addr w.addr_next in
  ignore (observe_bus t be_base be_pairs w.be w.be_next);
  ignore (observe_bus t wdata_base data_pairs w.wdata w.wdata_next);
  let rdata_toggles = observe_bus t rdata_base data_pairs w.rdata w.rdata_next in
  (* The control word: self energy only, by ascending Ec.Signals index. *)
  let ctrl_toggles = self_scan t ctrl_base w.ctrl_next (w.ctrl lxor w.ctrl_next) 0 in
  let sel_toggles = Sim.Bits.popcount (w.sel lxor w.sel_next) in
  t.words <- t.words + 6;
  t.bits <- t.bits + ctrl_toggles;
  if addr_toggles > 0 then
    add_internal t
      (float_of_int addr_toggles
      *. (p.Params.decoder_pj_per_addr_toggle +. p.Params.glitch_pj_per_hamming));
  if rdata_toggles > 0 then
    add_internal t (float_of_int rdata_toggles *. p.Params.mux_pj_per_rdata_toggle);
  if ctrl_toggles > 0 then
    add_internal t (float_of_int ctrl_toggles *. p.Params.fsm_pj_per_ctrl_toggle);
  if sel_toggles > 0 then
    add_internal t (float_of_int sel_toggles *. p.Params.sel_pj_per_toggle);
  add_internal t p.Params.leakage_pj_per_cycle

let observe_and_commit t =
  if t.reference then observe_reference t else observe_tables t;
  Wires.commit_all t.wires;
  Power.Meter.end_cycle t.meter

let total_pj t = t.totals.(0) +. t.totals.(1)
let interface_pj t = t.totals.(0)
let internal_pj t = t.totals.(1)
let meter t = t.meter
let per_signal_energy_pj t = Array.copy t.per_signal_pj
let per_signal_transitions t = Array.copy t.per_signal_transitions
let words_scanned t = t.words
let bits_visited t = t.bits
let transitions_total t = Array.fold_left ( + ) 0 t.per_signal_transitions

let reset t =
  Array.fill t.per_signal_pj 0 (Array.length t.per_signal_pj) 0.0;
  Array.fill t.per_signal_transitions 0 (Array.length t.per_signal_transitions) 0;
  Array.fill t.totals 0 2 0.0;
  t.words <- 0;
  t.bits <- 0;
  Power.Meter.reset t.meter

let characterize ~name t =
  Power.Characterization.derive ~name ~energy_pj:t.per_signal_pj
    ~transitions:t.per_signal_transitions
