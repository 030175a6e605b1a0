(** Multi-point evaluation of compiled trace plans (DESIGN.md §14).

    A {!point} is one parameter point of the exploration space — a
    characterization table at layer 1, a table plus lump parameters at
    layers 2 and 3.  Neither reaches the gate level: a plan at
    {!Hier.Level.Rtl} plays its wire rows through {!Rtl.Diesel} under
    the default {!Rtl.Params}, once for every point.  At layers 1 to 3
    {!eval_multi} prices each class of the plan ({!Plan.classes}) once
    per point and one walk adds the class energies row by row, in cycle
    order, so N points cost one pass over the class table and one walk
    of the rows instead of N interpreted replays.

    Layer-1 and layer-2 class pricing, the walk and the fabric op
    streams run k lanes at once in the lane kernel
    ([lib/power/lane_kernel.c]).  A
    layer-1 plan is priced from the segment table its capture recorded
    ({!Plan.wires}): each distinct (group, toggle word) is summed once
    per point, consecutive segments of equal length side by side as
    independent chains, and each class joins its five sums.  A layer-2
    class adds its lumps onto 0.0 in event order.  The interpreted
    {!Tlm1.Energy} model closes each cycle in the same file, and
    {!Tlm2.Energy} prices each data phase there with the same data-lump
    expression.

    Bit-exactness: a class's energy is a pure function of its words or
    lumps and the point, and for each point every float operation
    happens in the order the interpreted estimator performs it (per-bit
    sums ascend from bit 0; groups add in addr/be/wdata/rdata/ctrl
    order; one cycle's lumps group before joining the total; cycles add
    in cycle order; Diesel runs its own code).  The one addition the
    interpreter skips, a quiet group's empty segment joining the class,
    adds +0.0 to a sum that started at +0.0 and so is never -0.0, which
    leaves it unchanged.  So the returned energy —
    and the per-cycle profile, when requested — equals the interpreted
    figure bit for bit.  The kernel is compiled without floating-point
    contraction or reassociation, and its per-CPU variants (AVX-512F,
    AVX2, baseline x86-64, one chosen at load) differ only in how many
    lanes one instruction adds, so this holds on any host. *)

type point = {
  table : Power.Characterization.t;
  l2_params : Tlm2.Energy.params option;
      (** layer-2 plans only; [None] means {!Tlm2.Energy.default_params},
          exactly as an interpreted run without [?l2_params] *)
}

type outcome = { bus_pj : float; profile : Power.Profile.t option }

val eval_multi :
  record_profile:bool -> Plan.t -> points:point list -> outcome list
(** One pass over the plan, one outcome per point, in order.
    @raise Invalid_argument on a body the recorders cannot build: a
    segment table that names a wire outside the interface, an offset
    outside or out of order, a segment id outside the table or a class
    without its five ids, a layer-2 offset that decreases or leaves the
    lump words, a lump of a kind other than address or data, a burst
    below 1 or past its class, or a row class outside the class
    table. *)

(** {1 Fabric plans (DESIGN.md §18)} *)

type fabric_outcome = {
  buckets : float array;  (** per-master attributed energy, pJ *)
  fabric_pj : float;
      (** bucket sum in index order — the interpreted
          {!Ec.Fabric.total_pj} *)
  near_bus_pj : float;  (** the near bus model's total *)
  far_bus_pj : float;  (** the far bus model's total; 0.0 unbridged *)
  fabric_bridge_pj : float;
      (** crossing energy in global acceptance order — the interpreted
          {!Ec.Fabric.bridge_pj}; already inside the buckets *)
}

val eval_fabric_multi :
  Plan.fabric -> points:point list -> fabric_outcome list
(** One pricing of each bus body's classes, one outcome per point, in
    order.  Each master's bucket replays that master's op stream — the
    exact float-add order of the interpreted fabric — reading a sampled
    cycle's energy through a cycle-to-class index (the Diesel profile at
    the gate level), so buckets, totals and bridge energy are
    bit-identical to an interpreted run at each point.
    @raise Invalid_argument if [op_off] is not [f_masters + 1]
    non-decreasing offsets into the op streams, a near or far sample
    names no closed cycle of its body ([0 .. meta.cycles - 1]), a far
    sample appears without a far plan, or a bus body is refused as by
    {!eval_multi}. *)
