(** Compiled trace plans (DESIGN.md section 14).

    A plan is the one-shot residue of an interpreted replay: slave
    routing ({!Ec.Decoder}), wait-state schedules ({!Ec.Timing},
    {!Ec.Slave_cfg}) and burst decisions have already been played out by
    the bus model, and the plan keeps the flat integer record of what
    the energy estimator saw — the per-cycle toggle words of the wire
    image at the gate level and layer 1, which run one engine over one
    {!Rtl.Wires}, the lumps of each cycle at layer 2 and at layer 3 (the
    carrier's) — plus the table-independent scalar results of the run.
    The record is interned at capture into a table of distinct cycle
    {e classes} and one [(closed cycle, class)] row per priced cycle:
    both estimators price a cycle from its own words or lumps alone, so
    {!Eval} prices each class once per point and adds the class energies
    in cycle order, without a kernel, queues or slave calls.  The
    capture also records the layer-1 bit decode of the class table once,
    as a table of distinct (signal group, toggle word) {e segments}
    ({!wires}), so a fold sums each distinct group word once per point
    instead of decoding every class's words again. *)

type meta = {
  level : Hier.Level.t;
      (** a {!Wires} body folds through {!Rtl.Diesel} at [Rtl] only *)
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  transitions : int;  (** 0 at layers 2 and 3, as interpreted *)
  component_pj : float;
      (** platform component energy of the run — independent of the
          characterization table, so captured once at compile time *)
}

(** The class table of a gate-level and layer-1 body, with its layer-1
    bit decode recorded once: the {e segment table}.  A segment is one
    distinct (signal group, toggle word) of the table, stored as the
    group's toggled wires by dense {!Ec.Signals} index (below 113, so
    one byte each), lowest bit first.  Segments lie end to end in
    [seg_wire] in ascending length order (first occurrence within a
    length); segment [x] is bytes [seg_off.(x)] .. [seg_off.(x + 1) - 1]
    of [seg_wire], and segment 0 is the empty one.  {!Eval} sums each
    segment once per point and joins each class's five sums. *)
type wires = {
  words : int array;
      (** six toggle words per class — old [lxor] new of addr, be,
          wdata, rdata, ctrl and the controller's slave selects, which
          only the gate level reads — class [c] at [6 * c]; the new
          words are the running xor of the rows' classes from the reset
          zeros, so the rows carry the whole wire image *)
  seg_off : int array;  (** segments + 1 non-decreasing offsets *)
  seg_wire : Bytes.t;  (** one wire index a byte *)
  class_seg : int array;
      (** five segment ids per class, in addr/be/wdata/rdata/ctrl
          order, class [c] at [5 * c]; 0 for a quiet group *)
}

(** The class table of a body.  [Wires]: the gate level and layer 1.
    [L2]: the lumps of one closed cycle in event order, each an address
    lump [0; 0; 0] or a data lump [1; dir; burst] (dir 0 = read, 1 =
    write) followed by its [burst - 1] inter-beat popcounts; class [c]
    is [l2_words.(l2_off.(c))] .. [l2_words.(l2_off.(c + 1) - 1)].
    Classes are pairwise distinct. *)
type classes =
  | Wires of wires
  | L2 of { l2_off : int array; l2_words : int array }

val wires : int array -> wires
(** [wires words] builds the segment table of a class table of six words
    per class.  The wire recorder and any hand-built body use it.
    @raise Invalid_argument if [words] is not six words per class or a
    group word is negative or wider than its signal group. *)

type body = {
  row_cycle : int array;
      (** ascending closed-cycle index of each row: one row per cycle in
          which a wire group toggled ([Wires]) or a lump landed ([L2]) *)
  row_class : int array;
      (** each row's class; ids are numbered in order of first
          occurrence *)
  classes : classes;
}
(** {!Eval} refuses a row class outside the class table and a segment
    table that reads outside itself or the interface wires
    ([Invalid_argument]); build bodies with the recorders below, or
    classes with {!wires}. *)

type t = { meta : meta; body : body }

val at_level : Hier.Level.t -> t -> t
(** The plan folding at [level], body shared: one {!Wires} body serves
    the gate level and layer 1.  A plan at [level] comes back as it is. *)

(** {1 Recorders}

    Attach {!wire_observe} with {!Rtl.Bus.set_tap} (or {!l2_observe}
    with {!Tlm2.Energy.set_observer}), run the workload once
    interpreted, then take the finished body.  A recorder interns each
    cycle's key as the cycle closes, in an int-keyed open-addressing
    table whose probe compares every word of a stored key, never the
    hash alone. *)

type wire_recorder

val wire_recorder : unit -> wire_recorder
val wire_observe : wire_recorder -> Rtl.Wires.t -> unit
val wire_finish : wire_recorder -> body

type l2_recorder

val l2_recorder : unit -> l2_recorder
val l2_observe : l2_recorder -> Tlm2.Energy.event -> unit
val l2_finish : l2_recorder -> body

(** {1 Fabric plans (DESIGN.md section 18)}

    A fabric plan extends the single-bus plan with the
    arbitration-resolved residue of a multi-master run: the near (and,
    bridged, far) bus bodies recorded by the buses' own taps, plus one
    integer {e op stream} per master replaying the exact order of that
    master's bucket adds — bridge crossings (the burst length) and
    sampled closed bus cycles (the cycle index into the body).  The
    schedule is parameter-independent once the workload, arbiter policy
    and topology are fixed, so one recording pass serves every
    characterization table ({!Eval.eval_fabric_multi}). *)

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
    together with the bus taps for one interpreted pass. *)

val fabric_finish :
  fabric_recorder -> meta:fabric_meta -> near:t -> far_plan:t option -> fabric
