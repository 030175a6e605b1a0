(* Multi-point plan evaluation (DESIGN.md section 14).

   A lane is one parameter point — a characterization table at layer 1,
   a table plus lump parameters at layer 2.  The evaluator decodes the
   plan's transition words once per pass and folds every lane's energy
   off the shared decode, so N points cost one walk of the plan instead
   of N interpreted replays.

   Bit-exactness contract: for each lane, every float operation happens
   in exactly the order the interpreted estimator performs it — per-bit
   sums ascend from bit 0, signal groups add left-associatively in
   addr/be/wdata/rdata/ctrl order, lumps of one cycle group into the
   meter's in-cycle accumulator before joining the total.  Elided quiet
   cycles add a literal 0.0 in the interpreted model, a float identity
   for the non-negative energies involved. *)

type point = {
  table : Power.Characterization.t;
  l2_params : Tlm2.Energy.params option;
      (** layer-2 lanes only; [None] means {!Tlm2.Energy.default_params},
          exactly as an interpreted run without [?l2_params] *)
}

type outcome = { bus_pj : float; profile : Power.Profile.t option }

(* --- layer 1 lanes: per-bit pJ arrays, as Tlm1.Energy builds them ---- *)

type l1_lane = {
  a_pj : float array;
  b_pj : float array;
  w_pj : float array;
  r_pj : float array;
  c_pj : float array;
}

let l1_lane table =
  let per id = Power.Characterization.energy_per_transition table id in
  {
    a_pj = Array.init Ec.Signals.addr_wires (fun i -> per (Ec.Signals.Addr i));
    b_pj = Array.init Ec.Signals.be_wires (fun i -> per (Ec.Signals.Be i));
    w_pj = Array.init Ec.Signals.data_wires (fun i -> per (Ec.Signals.Wdata i));
    r_pj = Array.init Ec.Signals.data_wires (fun i -> per (Ec.Signals.Rdata i));
    c_pj =
      Array.of_list
        (List.map (fun c -> per (Ec.Signals.Ctrl c)) Ec.Signals.all_ctrl);
  }

(* --- layer 2 lanes: parameters plus the cached averages --------------- *)

type l2_lane = {
  p : Tlm2.Energy.params;
  avg_wdata : float;
  avg_rdata : float;
  avg_ctrl : float;
  addr_lump : float;  (* the address-phase lump is lane-constant *)
}

let l2_lane table params =
  let avg_addr = Power.Characterization.avg_addr_bit table in
  let avg_be = Power.Characterization.avg_be_bit table in
  let avg_ctrl = Power.Characterization.avg_ctrl_bit table in
  {
    p = params;
    avg_wdata = Power.Characterization.avg_wdata_bit table;
    avg_rdata = Power.Characterization.avg_rdata_bit table;
    avg_ctrl;
    addr_lump =
      (params.Tlm2.Energy.boundary_addr_toggles *. avg_addr)
      +. (params.Tlm2.Energy.attr_toggles *. avg_be)
      +. (3.0 *. params.Tlm2.Energy.attr_toggles *. avg_ctrl)
      +. (2.0 *. params.Tlm2.Energy.strobe_pulses_per_phase *. avg_ctrl);
  }

(* --- evaluation ------------------------------------------------------- *)

let finish totals profs l =
  {
    bus_pj = totals.(l);
    profile =
      (match profs with
      | None -> None
      | Some ps ->
        let p = Power.Profile.create () in
        Array.iter (Power.Profile.push p) ps.(l);
        Some p);
  }

(* Both body evaluators share one shape: walk the plan once, fold each
   lane's totals, and optionally keep the per-cycle energies in a dense
   array (cycle index -> that cycle's pJ, 0.0 for elided quiet cycles).
   The dense array doubles as the per-cycle profile and as the lookup
   table fabric op streams sample from. *)

let eval_l1 (meta : Plan.meta) (d : Plan.l1_data) lanes ~dense =
  let k = Array.length lanes in
  let totals = Array.make k 0.0 in
  let profs =
    if dense then
      Some (Array.init k (fun _ -> Array.make meta.Plan.cycles 0.0))
    else None
  in
  let n = Array.length d.Plan.d_cycle in
  (* Shared decode: the set-bit positions of one group's transition word,
     found once and reused by every lane. *)
  let idx = Array.make Ec.Signals.addr_wires 0 in
  let pj = Array.make k 0.0 in
  let group w sel =
    if w <> 0 then begin
      let m = ref 0 and bits = ref w and i = ref 0 in
      while !bits <> 0 do
        if !bits land 1 = 1 then begin
          idx.(!m) <- !i;
          incr m
        end;
        bits := !bits lsr 1;
        incr i
      done;
      for l = 0 to k - 1 do
        let arr = sel lanes.(l) in
        let s = ref 0.0 in
        for j = 0 to !m - 1 do
          s := !s +. Array.unsafe_get arr (Array.unsafe_get idx j)
        done;
        pj.(l) <- pj.(l) +. !s
      done
    end
  in
  for e = 0 to n - 1 do
    Array.fill pj 0 k 0.0;
    group d.Plan.d_addr.(e) (fun l -> l.a_pj);
    group d.Plan.d_be.(e) (fun l -> l.b_pj);
    group d.Plan.d_wdata.(e) (fun l -> l.w_pj);
    group d.Plan.d_rdata.(e) (fun l -> l.r_pj);
    group d.Plan.d_ctrl.(e) (fun l -> l.c_pj);
    let c = d.Plan.d_cycle.(e) in
    for l = 0 to k - 1 do
      totals.(l) <- totals.(l) +. pj.(l);
      match profs with Some ps -> ps.(l).(c) <- pj.(l) | None -> ()
    done
  done;
  (totals, profs)

let eval_l2 (meta : Plan.meta) (d : Plan.l2_data) lanes ~dense =
  let k = Array.length lanes in
  let totals = Array.make k 0.0 in
  let profs =
    if dense then
      Some (Array.init k (fun _ -> Array.make meta.Plan.cycles 0.0))
    else None
  in
  let n = Array.length d.Plan.ev_cycle in
  let cur = Array.make k 0.0 in
  let i = ref 0 in
  while !i < n do
    let c = d.Plan.ev_cycle.(!i) in
    Array.fill cur 0 k 0.0;
    while !i < n && d.Plan.ev_cycle.(!i) = c do
      let e = !i in
      if d.Plan.ev_kind.(e) = 0 then
        for l = 0 to k - 1 do
          cur.(l) <- cur.(l) +. lanes.(l).addr_lump
        done
      else begin
        let burst = d.Plan.ev_burst.(e) in
        let off = d.Plan.ev_pop_off.(e) in
        let dir = d.Plan.ev_dir.(e) in
        for l = 0 to k - 1 do
          let ln = lanes.(l) in
          let toggles = ref ln.p.Tlm2.Energy.boundary_data_toggles in
          for j = 0 to burst - 2 do
            toggles := !toggles +. float_of_int d.Plan.pops.(off + j)
          done;
          let strobes =
            ln.p.Tlm2.Energy.strobe_pulses_per_beat *. float_of_int burst
            +. (if burst > 1 then 4.0 else 0.0)
          in
          let avg_bit = if dir = 0 then ln.avg_rdata else ln.avg_wdata in
          cur.(l) <- cur.(l) +. ((!toggles *. avg_bit) +. (strobes *. ln.avg_ctrl))
        done
      end;
      incr i
    done;
    for l = 0 to k - 1 do
      totals.(l) <- totals.(l) +. cur.(l);
      match profs with Some ps -> ps.(l).(c) <- cur.(l) | None -> ()
    done
  done;
  (totals, profs)

(* One pass over a body plan: per-lane totals, plus the dense per-cycle
   energies when asked for. *)
let eval_raw plan ~points ~dense =
  match plan.Plan.body with
  | Plan.L1 d ->
    let lanes =
      Array.of_list (List.map (fun pt -> l1_lane pt.table) points)
    in
    eval_l1 plan.Plan.meta d lanes ~dense
  | Plan.L2 d ->
    let lanes =
      Array.of_list
        (List.map
           (fun pt ->
             l2_lane pt.table
               (Option.value pt.l2_params
                  ~default:Tlm2.Energy.default_params))
           points)
    in
    eval_l2 plan.Plan.meta d lanes ~dense

let eval_multi ~record_profile plan ~points =
  if points = [] then []
  else
    let totals, profs = eval_raw plan ~points ~dense:record_profile in
    List.init (List.length points) (finish totals profs)

let eval ?(record_profile = false) ?l2_params ~table plan =
  match eval_multi ~record_profile plan ~points:[ { table; l2_params } ] with
  | [ o ] -> o
  | _ -> assert false

(* --- fabric plans (DESIGN.md section 18) ------------------------------ *)

type fabric_outcome = {
  buckets : float array;
  fabric_pj : float;
  near_bus_pj : float;
  far_bus_pj : float;
  fabric_bridge_pj : float;
}

(* Per-master buckets replayed off the op streams.  Bit-exactness: each
   op adds exactly the float the interpreted fabric added, in the same
   per-master order — a crossing adds [cross_pj_per_beat *. burst], a
   sample adds the dense per-cycle energy of the sampled bus cycle
   (0.0 for a cycle the body elided, exactly what the interpreted tap
   read from the meter).  The fabric total is the bucket sum in index
   order and [bridge_pj] refolds the global crossing order, both as the
   interpreted accessors compute them. *)
let eval_fabric_multi (f : Plan.fabric) ~points =
  if points = [] then []
  else begin
    let k = List.length points in
    let m = f.Plan.f_meta in
    let near_totals, near_dense =
      eval_raw f.Plan.near ~points ~dense:true
    in
    let near_dense = Option.get near_dense in
    let far_totals, far_dense =
      match f.Plan.far_plan with
      | Some p ->
        let t, d = eval_raw p ~points ~dense:true in
        (t, Option.get d)
      | None -> (Array.make k 0.0, Array.make k [||])
    in
    let cross = m.Plan.f_cross_pj_per_beat in
    let bridge_pj =
      Array.fold_left
        (fun acc burst -> acc +. (cross *. float_of_int burst))
        0.0 f.Plan.cross_bursts
    in
    List.init k (fun l ->
        let near_c = near_dense.(l) and far_c = far_dense.(l) in
        let buckets = Array.make m.Plan.f_masters 0.0 in
        for mi = 0 to m.Plan.f_masters - 1 do
          let acc = ref 0.0 in
          for i = f.Plan.op_off.(mi) to f.Plan.op_off.(mi + 1) - 1 do
            let arg = Array.unsafe_get f.Plan.op_arg i in
            let kind = Array.unsafe_get f.Plan.op_kind i in
            if kind = Plan.op_near then
              acc := !acc +. Array.unsafe_get near_c arg
            else if kind = Plan.op_far then
              acc := !acc +. Array.unsafe_get far_c arg
            else acc := !acc +. (cross *. float_of_int arg)
          done;
          buckets.(mi) <- !acc
        done;
        let fabric_pj = Array.fold_left ( +. ) 0.0 buckets in
        {
          buckets;
          fabric_pj;
          near_bus_pj = near_totals.(l);
          far_bus_pj = far_totals.(l);
          fabric_bridge_pj = bridge_pj;
        })
  end

let eval_fabric ~table f =
  match eval_fabric_multi f ~points:[ { table; l2_params = None } ] with
  | [ o ] -> o
  | _ -> assert false
