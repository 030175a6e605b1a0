(* Multi-point plan evaluation (DESIGN.md section 14).

   A lane is one parameter point — a characterization table at layer 1,
   a table plus lump parameters at layers 2 and 3 (none of it reaches the
   gate level, which folds once for every lane).  Both estimators price
   a closed cycle from its own words or lumps, so the evaluator prices
   each class of the plan once per lane and one walk adds the class
   energies row by row, in cycle order: N points cost one pass over the
   class table plus one walk, instead of N interpreted replays.

   The k-lane loops — layer-1 and layer-2 class pricing, the walk and
   the fabric op streams — run in the lane kernel
   (lib/power/lane_kernel.c), whose one-class pricing the interpreters,
   [Tlm1.Energy] and [Tlm2.Energy], run at one lane.  A layer-1 plan is
   priced from its segment table (Plan.wires, recorded at capture): each
   segment summed once per lane, consecutive segments of equal length
   side by side as independent chains, then each class's five sums
   joined in group order.  A layer-2 class's lumps add onto 0.0 in event
   order, each data lump by the interpreter's lump formula, in the same
   kernel entry the interpreter prices its data phases with.  Every lane
   does the interpreter's additions in its order, plus +0.0 where a
   quiet group joins its empty segment, and adds its rows in cycle
   order; [Rtl.Diesel] closes every cycle at the gate level.  So
   bit-exactness holds by construction.  What stays here is the cycle
   grouping: one cycle's lumps group before joining the total, and an
   elided quiet cycle adds a literal 0.0 at layers 1 and 2, a float
   identity for the non-negative energies involved.  The segment sums
   live in a per-domain scratch slot like the other pass arrays. *)

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

(* The arrays a pass builds live in scratch slots kept per domain and
   reused from pass to pass: the class energies ((classes + 1) x k
   floats; [body_slot] for a plan's body, [far_slot] for a fabric plan's
   far body), the layer-1 lane energies (113 floats a lane, lanes padded
   to a multiple of 16; [lane_slot]), the layer-1 segment sums (16
   floats a segment; [seg_slot]) and a fabric body's cycle -> class index
   ([body_slot], [far_slot]).  Fresh arrays that large go to the major
   heap, and on a warm sweep their allocation paced the major collector:
   155 major collections in 300 work cycles against 9 with reuse.  A pass
   takes an array out of its slot and gives it back when done, so
   another thread of the same domain finds the slot empty and allocates
   its own. *)
type slots = { floats : float array array; ints : int array array }

let body_slot = 0
let far_slot = 1
let lane_slot = 2
let seg_slot = 3

let scratch =
  Domain.DLS.new_key (fun () ->
      { floats = Array.make 4 [||]; ints = Array.make 2 [||] })

(* An array of at least [n] elements, holding what the last pass left:
   [x] makes a fresh one. *)
let take slots slot n x =
  let a = slots.(slot) in
  slots.(slot) <- [||];
  if Array.length a < n then Array.make n x else a

let give slots slot a = slots.(slot) <- a

(* The lane kernel, lib/power/lane_kernel.c, linked with Power; Tlm1's
   Energy module runs its one-class layer-1 pricing in the interpreter
   and checks its group widths against Ec.Signals when loaded, Tlm2's
   runs its layer-2 entry on one lump.
   [price_segments t pj s e k] prices every class of [t] under the lane
   energies [pj] (see [l1_classes]) into [e], summing each segment into
   the scratch [s] (16 floats a segment); [price_l2 off words lanes e k]
   prices every layer-2 class into [e]; [walk_rows row_class e k classes
   totals] adds each lane's class energies over the rows into [totals];
   [fold_ops] replays the fabric op streams (below).  All return 0, or
   the nonzero status of what they refused before reading past an
   array: see [check]. *)
external price_segments :
  Plan.wires -> float array -> float array -> float array -> int -> int
  = "lane_price_segments"
[@@noalloc]

external price_l2 :
  int array -> int array -> Tlm2.Energy.lanes -> float array -> int -> int
  = "lane_price_l2"
[@@noalloc]

external walk_rows :
  int array -> float array -> int -> int -> float array -> int
  = "lane_walk"
[@@noalloc]

let check = function
  | 0 -> ()
  | 1 -> invalid_arg "Compile.Eval: plan arrays shorter than their counts"
  | 3 -> invalid_arg "Compile.Eval: row class out of range"
  | 4 -> invalid_arg "Compile.Eval: segment table out of range"
  | 6 -> invalid_arg "Compile.Eval: layer-2 class table out of range"
  | _ -> invalid_arg "Compile.Eval: op stream out of range"

let class_count = function
  | Plan.Wires w -> Array.length w.Plan.words / 6
  | Plan.L2 { l2_off; _ } -> Array.length l2_off - 1

(* Lane energies of every class, class [c] of lane [l] at [c * k + l],
   then one zero class for the quiet cycles fabric ops sample, in a
   scratch array from [slot].  At layer 1 the kernel prices them from
   the segment table and every wire's lane energies, in blocks of 16
   lanes: lane [l] of wire [w] at [(l / 16 * 113 + w) * 16 + l mod 16],
   so a block's energies of one wire are adjacent; the padding lanes
   are 0.0. *)
let l1_classes slots ~slot (w : Plan.wires) points ~k =
  let n = Array.length w.Plan.words / 6 in
  let e = take slots.floats slot ((n + 1) * k) 0.0 in
  let wires = Ec.Signals.count in
  let npj = (k + 15) / 16 * wires * 16 in
  let pj = take slots.floats lane_slot npj 0.0 in
  let s =
    take slots.floats seg_slot ((16 * (Array.length w.Plan.seg_off - 1)) + 8) 0.0
  in
  Array.fill pj 0 npj 0.0;
  List.iteri
    (fun l pt ->
      let t = Power.Characterization.to_array pt.table in
      let o = (l / 16 * wires * 16) + (l mod 16) in
      for w = 0 to wires - 1 do
        pj.(o + (w * 16)) <- t.(w)
      done)
    points;
  let status = price_segments w pj s e k in
  give slots.floats lane_slot pj;
  give slots.floats seg_slot s;
  check status;
  Array.fill e (n * k) k 0.0;
  e

(* Lane energies of every layer-2 class, class [c] of lane [l] at
   [c * k + l], then the zero class, in a scratch array from [slot]: the
   kernel adds each class's lumps onto 0.0 in event order, the
   interpreted cycle grouping, by the interpreter's lump formula. *)
let l2_classes slots ~slot ~off ~words lanes ~k =
  let n = Array.length off - 1 in
  let e = take slots.floats slot ((n + 1) * k) 0.0 in
  check (price_l2 off words lanes e k);
  Array.fill e (n * k) k 0.0;
  e

let class_energies slots ~slot (c : Plan.classes) ~points ~k =
  match c with
  | Plan.Wires w -> l1_classes slots ~slot w points ~k
  | Plan.L2 { l2_off; l2_words } ->
    l2_classes slots ~slot ~off:l2_off ~words:l2_words
      (Tlm2.Energy.lanes
         (Array.of_list
            (List.map
               (fun pt ->
                 ( pt.table,
                   Option.value pt.l2_params
                     ~default:Tlm2.Energy.default_params ))
               points)))
      ~k

(* The one walk of layers 1 and 2: each lane adds its energy of every
   row's class onto 0.0, row by row in cycle order, in the kernel.  With
   [~profile] each lane's dense per-cycle profile is filled too, 0.0 at
   the cycles without a row. *)
let walk (meta : Plan.meta) (b : Plan.body) e ~k ~profile =
  let rk = b.Plan.row_class in
  let totals = Array.make k 0.0 in
  check (walk_rows rk e k (class_count b.Plan.classes) totals);
  let dense l =
    let p = Array.make meta.Plan.cycles 0.0 in
    Array.iteri (fun r c -> p.(c) <- e.((rk.(r) * k) + l)) b.Plan.row_cycle;
    p
  in
  (totals, if profile then Some (Array.init k dense) else None)

(* The gate level plays the rows back onto scratch wires (62 select lines
   hold any select word) from their classes' words and closes every
   cycle, quiet ones too for their leakage, with Diesel under the default
   parameters: the total and, when [dense], the per-cycle energies. *)
let eval_gate (meta : Plan.meta) (b : Plan.body) ws ~dense =
  let w = Rtl.Wires.create ~n_slaves:62 in
  let g = Rtl.Diesel.create ~record_profile:dense w in
  let rc = b.Plan.row_cycle and rk = b.Plan.row_class in
  let r = ref 0 in
  for c = 0 to meta.Plan.cycles - 1 do
    let i = !r in
    if i < Array.length rc && rc.(i) = c then begin
      let o = 6 * rk.(i) in
      Rtl.Wires.toggle w ~addr:ws.(o) ~be:ws.(o + 1) ~wdata:ws.(o + 2)
        ~rdata:ws.(o + 3) ~ctrl:ws.(o + 4) ~sel:ws.(o + 5);
      r := i + 1
    end;
    Rtl.Diesel.observe_and_commit g
  done;
  ( Rtl.Diesel.total_pj g,
    Option.map Power.Profile.to_array
      (Power.Meter.profile (Rtl.Diesel.meter g)) )

let eval_multi ~record_profile plan ~points =
  if points = [] then []
  else
    let k = List.length points in
    let meta = plan.Plan.meta and b = plan.Plan.body in
    let totals, profs =
      match b.Plan.classes with
      | Plan.Wires w when meta.Plan.level = Hier.Level.Rtl ->
        let total, prof = eval_gate meta b w.Plan.words ~dense:record_profile in
        (Array.make k total, Option.map (Array.make k) prof)
      | c ->
        let slots = Domain.DLS.get scratch in
        let e = class_energies slots ~slot:body_slot c ~points ~k in
        let r = walk meta b e ~k ~profile:record_profile in
        give slots.floats body_slot e;
        r
    in
    List.init k (finish totals profs)

(* --- fabric plans (DESIGN.md section 18) ------------------------------ *)

type fabric_outcome = {
  buckets : float array;
  fabric_pj : float;
  near_bus_pj : float;
  far_bus_pj : float;
  fabric_bridge_pj : float;
}

(* What the op streams read of one bus: lane [l]'s energy of closed cycle
   [c] is [e.(idx.(c) * stride + l * lane)].  At layers 1 and 2 [idx]
   maps a cycle to its class, a quiet cycle to the zero class, and [e]
   holds the class energies; the gate level's one Diesel profile serves
   every lane, indexed by the cycle itself. *)
type sampled = {
  totals : float array;  (* the bus model's total, per lane *)
  idx : int array;
  e : float array;
  stride : int;
  lane : int;
}

let sampled slots ~slot (plan : Plan.t) ~points ~k =
  let meta = plan.Plan.meta and b = plan.Plan.body in
  match b.Plan.classes with
  | Plan.Wires w when meta.Plan.level = Hier.Level.Rtl ->
    let total, prof = eval_gate meta b w.Plan.words ~dense:true in
    {
      totals = Array.make k total;
      idx = Array.init meta.Plan.cycles Fun.id;
      e = Option.get prof;
      stride = 1;
      lane = 0;
    }
  | c ->
    let e = class_energies slots ~slot c ~points ~k in
    let totals, _ = walk meta b e ~k ~profile:false in
    (* After the walk has checked every row's class. *)
    let idx = take slots.ints slot meta.Plan.cycles 0 in
    Array.fill idx 0 meta.Plan.cycles (class_count c);
    Array.iteri
      (fun r cyc -> idx.(cyc) <- b.Plan.row_class.(r))
      b.Plan.row_cycle;
    { totals; idx; e; stride = k; lane = 1 }

(* The op streams replayed in the kernel: [fold_ops kind arg off near far
   cross k out] adds, for every master [m] and lane [l], the ops of [m]'s
   stream onto 0.0 in stream order into [out.(l * masters + m)]: a near
   or far sample adds [e.(idx.(arg) * stride + l * lane)] of that bus, a
   crossing adds [cross *. float_of_int arg].  It reads the [idx], [e],
   [stride] and [lane] fields of [near] and [far] and refuses an offset,
   sample or class index outside its array. *)
external fold_ops :
  int array ->
  int array ->
  int array ->
  sampled ->
  sampled ->
  float ->
  int ->
  float array ->
  int = "lane_fold_ops_byte" "lane_fold_ops"
[@@noalloc]

(* What the kernel cannot know, checked once per pass: the offsets hold
   one stream per master inside the op arrays, every sample names a
   closed cycle of its body, and only a bridged plan samples the far bus.
   A sample is checked against its body's cycle count, not against the
   cycle -> class index, whose scratch array may be longer and hold a
   stale class past the count. *)
let check_ops (f : Plan.fabric) =
  let fail what = invalid_arg ("Compile.Eval.eval_fabric_multi: " ^ what) in
  let masters = f.Plan.f_meta.Plan.f_masters and off = f.Plan.op_off in
  let ops = min (Array.length f.Plan.op_kind) (Array.length f.Plan.op_arg) in
  if masters < 0 || Array.length off <> masters + 1 then
    fail "op_off is not f_masters + 1 long";
  if off.(0) < 0 || off.(masters) > ops then
    fail "op_off outside the op streams";
  for mi = 0 to masters - 1 do
    if off.(mi) > off.(mi + 1) then fail "op_off decreases"
  done;
  let cycles (p : Plan.t) = p.Plan.meta.Plan.cycles in
  let near = cycles f.Plan.near
  and far = Option.fold ~none:(-1) ~some:cycles f.Plan.far_plan in
  for i = off.(0) to off.(masters) - 1 do
    let kind = f.Plan.op_kind.(i) and arg = f.Plan.op_arg.(i) in
    if kind = Plan.op_near && (arg < 0 || arg >= near) then
      fail "near sample outside the near body's cycles"
    else if kind = Plan.op_far then
      if far < 0 then fail "far sample without a far body"
      else if arg < 0 || arg >= far then
        fail "far sample outside the far body's cycles"
  done

(* Per-master buckets replayed off the op streams.  Bit-exactness: each
   op adds exactly the float the interpreted fabric added, in the same
   per-master order — a crossing adds [cross_pj_per_beat *. burst], a
   sample adds the energy of the sampled bus cycle (0.0 for a cycle the
   body elided, exactly what the interpreted tap read from the meter).
   The fabric total is the bucket sum in index order and [bridge_pj]
   refolds the global crossing order, both as the interpreted accessors
   compute them. *)
let eval_fabric_multi (f : Plan.fabric) ~points =
  if points = [] then []
  else begin
    check_ops f;
    let k = List.length points in
    let m = f.Plan.f_meta in
    let slots = Domain.DLS.get scratch in
    let near = sampled slots ~slot:body_slot f.Plan.near ~points ~k in
    let far =
      match f.Plan.far_plan with
      | Some p -> sampled slots ~slot:far_slot p ~points ~k
      | None ->
        {
          totals = Array.make k 0.0;
          idx = [||];
          e = [||];
          stride = 0;
          lane = 0;
        }
    in
    let cross = m.Plan.f_cross_pj_per_beat in
    (* A local float ref, unboxed: a fold's accumulator would box one
       float per crossing. *)
    let bridge_pj =
      let cb = f.Plan.cross_bursts and s = ref 0.0 in
      for i = 0 to Array.length cb - 1 do
        s := !s +. (cross *. float_of_int cb.(i))
      done;
      !s
    in
    let masters = m.Plan.f_masters in
    let out = Array.make (k * masters) 0.0 in
    check
      (fold_ops f.Plan.op_kind f.Plan.op_arg f.Plan.op_off near far
         m.Plan.f_cross_pj_per_beat k out);
    let give_back slot s =
      give slots.floats slot s.e;
      give slots.ints slot s.idx
    in
    give_back body_slot near;
    if Option.is_some f.Plan.far_plan then give_back far_slot far;
    List.init k (fun l ->
        let buckets = Array.sub out (l * masters) masters in
        let fabric_pj = Array.fold_left ( +. ) 0.0 buckets in
        {
          buckets;
          fabric_pj;
          near_bus_pj = near.totals.(l);
          far_bus_pj = far.totals.(l);
          fabric_bridge_pj = bridge_pj;
        })
  end
