(* Multi-point plan evaluation (DESIGN.md section 14).

   A lane is one parameter point — a characterization table at layer 1,
   a table plus lump parameters at layers 2 and 3 (none of it reaches the
   gate level, which folds once for every lane).  The evaluator decodes
   the plan once per pass and folds every lane's energy off the shared
   decode, so N points cost one walk of the plan instead of N
   interpreted replays.

   Bit-exactness holds by construction: each fold runs the interpreted
   estimator's own code — [Rtl.Diesel] per closed cycle,
   [Tlm1.Energy.fold] per wire row, [Tlm2.Energy]'s lanes and one
   [data_lumps] call per data event.  What stays here is the cycle
   grouping: one cycle's lumps group before joining the total, and an
   elided quiet cycle adds a literal 0.0 at layers 1 and 2, a float
   identity for the non-negative energies involved. *)

type point = {
  table : Power.Characterization.t;
  l2_params : Tlm2.Energy.params option;
      (** layer-2 lanes only; [None] means {!Tlm2.Energy.default_params},
          exactly as an interpreted run without [?l2_params] *)
}

type outcome = { bus_pj : float; profile : Power.Profile.t option }

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

let dense_profiles (meta : Plan.meta) k dense =
  if dense then Some (Array.init k (fun _ -> Array.make meta.Plan.cycles 0.0))
  else None

(* Cycle [c] closes with lane energies [pj]: they join the totals and,
   when kept, the dense profiles. *)
let close_cycle totals profs c (pj : float array) =
  let k = Array.length totals in
  match profs with
  | None ->
    for l = 0 to k - 1 do
      totals.(l) <- totals.(l) +. pj.(l)
    done
  | Some ps ->
    for l = 0 to k - 1 do
      totals.(l) <- totals.(l) +. pj.(l);
      ps.(l).(c) <- pj.(l)
    done

let eval_l1 (meta : Plan.meta) (d : Plan.wire_data) lanes ~k ~dense =
  let totals = Array.make k 0.0 and profs = dense_profiles meta k dense in
  let pj = Array.make k 0.0 in
  for e = 0 to Array.length d.Plan.d_cycle - 1 do
    ignore
      (Tlm1.Energy.fold lanes pj ~addr:d.Plan.d_addr.(e) ~be:d.Plan.d_be.(e)
         ~wdata:d.Plan.d_wdata.(e) ~rdata:d.Plan.d_rdata.(e)
         ~ctrl:d.Plan.d_ctrl.(e));
    close_cycle totals profs d.Plan.d_cycle.(e) pj
  done;
  (totals, profs)

(* The gate level plays the rows back onto scratch wires (62 select lines
   hold any select word) and closes every cycle, quiet ones too for their
   leakage, with Diesel under the default parameters. *)
let eval_gate (meta : Plan.meta) (d : Plan.wire_data) ~k ~dense =
  let w = Rtl.Wires.create ~n_slaves:62 in
  let g = Rtl.Diesel.create ~record_profile:dense w in
  let e = ref 0 in
  for c = 0 to meta.Plan.cycles - 1 do
    let i = !e in
    if i < Array.length d.Plan.d_cycle && d.Plan.d_cycle.(i) = c then begin
      Rtl.Wires.toggle w ~addr:d.Plan.d_addr.(i) ~be:d.Plan.d_be.(i)
        ~wdata:d.Plan.d_wdata.(i) ~rdata:d.Plan.d_rdata.(i)
        ~ctrl:d.Plan.d_ctrl.(i) ~sel:d.Plan.d_sel.(i);
      e := i + 1
    end;
    Rtl.Diesel.observe_and_commit g
  done;
  ( Array.make k (Rtl.Diesel.total_pj g),
    Option.map
      (fun p -> Array.make k (Power.Profile.to_array p))
      (Power.Meter.profile (Rtl.Diesel.meter g)) )

let eval_l2 (meta : Plan.meta) (d : Plan.l2_data) (lanes : Tlm2.Energy.lanes)
    ~dense =
  let addr_lump = lanes.Tlm2.Energy.addr_lump in
  let k = Array.length addr_lump in
  let totals = Array.make k 0.0 and profs = dense_profiles meta k dense in
  let n = Array.length d.Plan.ev_cycle in
  let cur = Array.make k 0.0 and lump = Array.make k 0.0 in
  let i = ref 0 in
  while !i < n do
    let c = d.Plan.ev_cycle.(!i) in
    Array.fill cur 0 k 0.0;
    while !i < n && d.Plan.ev_cycle.(!i) = c do
      let e = !i in
      if d.Plan.ev_kind.(e) = 0 then
        for l = 0 to k - 1 do
          cur.(l) <- cur.(l) +. addr_lump.(l)
        done
      else begin
        Tlm2.Energy.data_lumps lanes ~read:(d.Plan.ev_dir.(e) = 0)
          ~burst:d.Plan.ev_burst.(e) ~pops:d.Plan.pops
          ~off:d.Plan.ev_pop_off.(e) lump;
        for l = 0 to k - 1 do
          cur.(l) <- cur.(l) +. lump.(l)
        done
      end;
      incr i
    done;
    close_cycle totals profs c cur
  done;
  (totals, profs)

(* One pass over a body plan: per-lane totals, plus the dense per-cycle
   energies when asked for. *)
let eval_raw plan ~points ~dense =
  match plan.Plan.body with
  | Plan.Wires d when plan.Plan.meta.Plan.level = Hier.Level.Rtl ->
    eval_gate plan.Plan.meta d ~k:(List.length points) ~dense
  | Plan.Wires d ->
    let tables = Array.of_list (List.map (fun pt -> pt.table) points) in
    eval_l1 plan.Plan.meta d (Tlm1.Energy.lanes tables)
      ~k:(Array.length tables) ~dense
  | Plan.L2 d ->
    let lanes =
      Tlm2.Energy.lanes
        (Array.of_list
           (List.map
              (fun pt ->
                ( pt.table,
                  Option.value pt.l2_params
                    ~default:Tlm2.Energy.default_params ))
              points))
    in
    eval_l2 plan.Plan.meta d lanes ~dense

let eval_multi ~record_profile plan ~points =
  if points = [] then []
  else
    let totals, profs = eval_raw plan ~points ~dense:record_profile in
    List.init (List.length points) (finish totals profs)

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
