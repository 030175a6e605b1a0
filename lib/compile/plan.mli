(** Compiled trace plans (DESIGN.md section 14).

    A plan is the one-shot residue of an interpreted replay: slave
    routing ({!Ec.Decoder}), wait-state schedules ({!Ec.Timing},
    {!Ec.Slave_cfg}) and burst decisions have already been played out by
    the bus model, and the plan keeps the flat integer record of what
    the energy estimator saw — per-cycle transition words at layer 1,
    the lump event stream at layer 2 and at layer 3 (the carrier's), the
    energy record itself at the gate level — plus the table-independent
    scalar results of the run.  {!Eval} sweeps a plan under any number
    of parameter points without a kernel, queues or slave calls. *)

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

(** Layer-1 body: sparse parallel arrays, one entry per cycle with at
    least one signal transition.  Quiet cycles dissipate exactly 0.0 pJ
    in the interpreted model, so eliding them keeps totals bit-exact. *)
type l1_data = {
  d_cycle : int array;  (** ascending cycle index of each entry *)
  d_addr : int array;  (** old [lxor] new, per signal group *)
  d_be : int array;
  d_wdata : int array;
  d_rdata : int array;
  d_ctrl : int array;
}

(** Layer-2 body: the lump event stream, cycle-adjacent so the evaluator
    reproduces the meter's cycle grouping exactly.  Data lumps carry the
    burst shape and exact inter-beat Hamming distances. *)
type l2_data = {
  ev_cycle : int array;
  ev_kind : int array;  (** 0 = address lump, 1 = data lump *)
  ev_dir : int array;  (** 0 = read, 1 = write *)
  ev_burst : int array;
  ev_pop_off : int array;  (** start of this event's run in [pops] *)
  pops : int array;  (** burst-1 inter-beat popcounts per data lump *)
}

(** Gate-level body: the point parameters of {!Eval} play no role at the
    gate level, so the residue is the energy record itself — Diesel's
    total and the meter's per-cycle energies. *)
type rtl_data = {
  total_pj : float;  (** interface plus internal, as Diesel sums them *)
  cycle_pj : float array;  (** one entry per closed meter cycle *)
}

type body = L1 of l1_data | L2 of l2_data | Rtl of rtl_data
type t = { meta : meta; body : body }

val meta : t -> meta
val make : meta:meta -> body:body -> t

(** {1 Recorders}

    Attach {!l1_observe} as a {!Tlm1.Energy.set_observer} tap (or
    {!l2_observe} as a {!Tlm2.Energy.set_observer} tap), run the
    workload once interpreted, then take the finished body. *)

type l1_recorder

val l1_recorder : unit -> l1_recorder

val l1_observe :
  l1_recorder ->
  addr:int -> be:int -> wdata:int -> rdata:int -> ctrl:int -> unit

val l1_finish : l1_recorder -> body

type l2_recorder

val l2_recorder : unit -> l2_recorder
val l2_observe : l2_recorder -> Tlm2.Energy.event -> unit
val l2_finish : l2_recorder -> body

(** {1 Fabric plans (DESIGN.md section 18)}

    A fabric plan extends the single-bus plan with the
    arbitration-resolved residue of a multi-master run: the near (and,
    bridged, far) bus bodies recorded by the buses' own energy
    observers, plus one integer {e op stream} per master replaying the
    exact order of that master's bucket adds — bridge crossings (the
    burst length) and sampled closed bus cycles (the cycle index into
    the body).  The schedule is parameter-independent once the workload,
    arbiter policy and topology are fixed, so one recording pass serves
    every characterization table ({!Eval.eval_fabric_multi}). *)

val op_near : int
(** Op kinds of the stream: a sampled near-bus cycle (arg = closed cycle
    index), a sampled far-bus cycle, an accepted bridge crossing (arg =
    burst beats). *)

val op_far : int

type fabric_meta = {
  f_masters : int;
  f_cycles : int;
  f_txns : int array;  (** per master, as the fabric counters report *)
  f_beats : int array;
  f_errors : int array;
  f_grants : int array;
  f_crossings : int;
  f_cross_pj_per_beat : float;
      (** topology configuration captured at compile time — not a swept
          parameter *)
  f_component_pj : float;
}

type fabric = {
  f_meta : fabric_meta;
  near : t;
  far_plan : t option;
  op_kind : int array;  (** per-master streams, concatenated *)
  op_arg : int array;
  op_off : int array;  (** [f_masters + 1] offsets into the streams *)
  cross_bursts : int array;
      (** all crossings in global acceptance order — the fold behind the
          interpreted [bridge_pj] total *)
}

type fabric_recorder

val fabric_recorder : masters:int -> fabric_recorder

val fabric_observer : fabric_recorder -> Ec.Fabric.observer
(** The {!Ec.Fabric.set_observer} tap feeding the recorder; attach it
    together with the bus energy observers for one interpreted pass. *)

val fabric_finish :
  fabric_recorder -> meta:fabric_meta -> near:t -> far_plan:t option -> fabric
