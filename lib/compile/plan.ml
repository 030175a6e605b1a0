(* Compiled trace plans (DESIGN.md section 14).

   A plan is the one-shot residue of an interpreted replay: routing,
   wait-state schedules and burst decisions have already been played out
   by the bus model, and what remains is the flat integer record of what
   the energy estimator would see — the wire image's per-cycle toggle
   words at the gate level and layer 1, the lump event stream at layers
   2 and 3 — plus the table-independent scalar results of the run.  The
   record is interned at capture: each distinct cycle is stored once as
   a class, and the body keeps one (closed cycle, class) row per cycle
   with something to price.  A gate-level and layer-1 class table also
   carries its segment table (one decode of each distinct group word,
   see [wires]).  Re-evaluating a plan under a new characterization
   table or parameter point is then an array sweep (see Eval), with no
   kernel, queues or slave calls involved. *)

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

(* The class table of one capture: int-word keys of any length stored end
   to end, found through an open-addressing table of class ids.  A probe
   compares every word of the stored key, never the hash alone, so two
   cycles share a class only when their keys are equal.  Ids count up in
   first-occurrence order. *)
module Intern = struct
  type t = {
    words : Ivec.t;  (* the keys, concatenated *)
    off : Ivec.t;  (* classes + 1 offsets into [words] *)
    mutable slots : int array;  (* class id or -1; a power of two long *)
  }

  let create () =
    let off = Ivec.create () in
    Ivec.push off 0;
    { words = Ivec.create (); off; slots = Array.make 256 (-1) }

  let count t = t.off.Ivec.n - 1

  (* Multiply-xor over the words; the finish folds every bit into the
     low ones the slot index keeps. *)
  let hash (a : int array) pos len =
    let h = ref len in
    for i = pos to pos + len - 1 do
      h := (!h lxor a.(i)) * 0x2545F4914F6CDD1D
    done;
    let h = (!h lxor (!h lsr 32)) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)

  let equal t c (key : int array) len =
    let w = t.words.Ivec.a and o = t.off.Ivec.a.(c) in
    t.off.Ivec.a.(c + 1) - o = len
    &&
    let i = ref 0 in
    while !i < len && w.(o + !i) = key.(!i) do
      incr i
    done;
    !i = len

  let grow t =
    let slots = Array.make (2 * Array.length t.slots) (-1) in
    let mask = Array.length slots - 1 in
    for c = 0 to count t - 1 do
      let o = t.off.Ivec.a.(c) in
      let len = t.off.Ivec.a.(c + 1) - o in
      let s = ref (hash t.words.Ivec.a o len land mask) in
      while slots.(!s) >= 0 do
        s := (!s + 1) land mask
      done;
      slots.(!s) <- c
    done;
    t.slots <- slots

  (* The class of the first [len] words of [key], a new one if no stored
     key equals them. *)
  let intern t key len =
    let mask = Array.length t.slots - 1 in
    let s = ref (hash key 0 len land mask) in
    while t.slots.(!s) >= 0 && not (equal t t.slots.(!s) key len) do
      s := (!s + 1) land mask
    done;
    let c = t.slots.(!s) in
    if c >= 0 then c
    else begin
      let c = count t in
      for i = 0 to len - 1 do
        Ivec.push t.words key.(i)
      done;
      Ivec.push t.off t.words.Ivec.n;
      t.slots.(!s) <- c;
      if 2 * (c + 1) > Array.length t.slots then grow t;
      c
    end
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

(* The gate level and layer 1: six toggle words per class — old lxor new
   of addr, be, wdata, rdata, ctrl and sel — class [c] at [6 * c], and
   the segment table built from them (plan.mli; the lane kernel reads
   the fields in this order).  Layer 2: a class is one closed cycle's lumps in event order, each an
   address lump [0; 0; 0] or a data lump [1; dir; burst] followed by its
   burst - 1 inter-beat popcounts (never pre-summed: the lump formula
   adds them one by one), class [c] at [l2_off.(c)] ..
   [l2_off.(c + 1) - 1] of [l2_words]. *)
type wires = {
  words : int array;
  seg_off : int array;
  seg_wire : Bytes.t;
  class_seg : int array;
}

type classes =
  | Wires of wires
  | L2 of { l2_off : int array; l2_words : int array }

type body = {
  row_cycle : int array;  (* ascending closed-cycle index of each row *)
  row_class : int array;  (* the row's class *)
  classes : classes;
}

type t = { meta : meta; body : body }

(* --- the layer-1 segment table ---------------------------------------- *)

(* Built in the lane kernel (lib/power/lane_kernel.c), which reads it:
   (seg_off, seg_wire, class_seg) of six words a class. *)
external build_segments : int array -> int array * Bytes.t * int array
  = "lane_build_segments"

let wires words =
  let seg_off, seg_wire, class_seg = build_segments words in
  { words; seg_off; seg_wire; class_seg }

let at_level level t =
  if t.meta.level = level then t else { t with meta = { t.meta with level } }

(* --- recorders: what the bus and energy-model taps feed -------------- *)

(* Both recorders push one row per closed cycle that has something to
   price, interning its key on the way. *)
type rows = { r_cycle : Ivec.t; r_class : Ivec.t; r_intern : Intern.t }

let rows () =
  {
    r_cycle = Ivec.create ();
    r_class = Ivec.create ();
    r_intern = Intern.create ();
  }

let push_row r ~cycle key len =
  Ivec.push r.r_cycle cycle;
  Ivec.push r.r_class (Intern.intern r.r_intern key len)

let body_of r classes =
  {
    row_cycle = Ivec.to_array r.r_cycle;
    row_class = Ivec.to_array r.r_class;
    classes;
  }

type wire_recorder = {
  mutable w_cycle : int;
  w_rows : rows;
  w_key : int array;  (* the closing cycle's six words *)
}

let wire_recorder () =
  { w_cycle = 0; w_rows = rows (); w_key = Array.make 6 0 }

(* The Rtl.Bus tap: one call per falling edge, before the estimator
   commits the closing cycle's wires. *)
let wire_observe r (w : Rtl.Wires.t) =
  let open Rtl.Wires in
  let addr = w.addr lxor w.addr_next and be = w.be lxor w.be_next in
  let wdata = w.wdata lxor w.wdata_next and rdata = w.rdata lxor w.rdata_next in
  let ctrl = w.ctrl lxor w.ctrl_next and sel = w.sel lxor w.sel_next in
  if addr lor be lor wdata lor rdata lor ctrl lor sel <> 0 then begin
    let k = r.w_key in
    k.(0) <- addr;
    k.(1) <- be;
    k.(2) <- wdata;
    k.(3) <- rdata;
    k.(4) <- ctrl;
    k.(5) <- sel;
    push_row r.w_rows ~cycle:r.w_cycle k 6
  end;
  r.w_cycle <- r.w_cycle + 1

let wire_finish r =
  body_of r.w_rows (Wires (wires (Ivec.to_array r.w_rows.r_intern.Intern.words)))

(* The open cycle's lumps accumulate as a class key and are interned
   when the cycle closes. *)
type l2_recorder = {
  mutable l2_cycle : int;
  l2_rows : rows;
  l2_open : Ivec.t;
}

let l2_recorder () =
  { l2_cycle = 0; l2_rows = rows (); l2_open = Ivec.create () }

let l2_close r =
  let o = r.l2_open in
  if o.Ivec.n > 0 then begin
    push_row r.l2_rows ~cycle:r.l2_cycle o.Ivec.a o.Ivec.n;
    o.Ivec.n <- 0
  end

let l2_observe r (ev : Tlm2.Energy.event) =
  let o = r.l2_open in
  match ev with
  | Tlm2.Energy.Cycle ->
    l2_close r;
    r.l2_cycle <- r.l2_cycle + 1
  | Tlm2.Energy.Addr_lump _ ->
    Ivec.push o 0;
    Ivec.push o 0;
    Ivec.push o 0
  | Tlm2.Energy.Data_lump txn ->
    Ivec.push o 1;
    Ivec.push o
      (match txn.Ec.Txn.dir with Ec.Txn.Read -> 0 | Ec.Txn.Write -> 1);
    Ivec.push o txn.Ec.Txn.burst;
    for i = 1 to txn.Ec.Txn.burst - 1 do
      Ivec.push o
        (Sim.Bits.popcount (txn.Ec.Txn.data.(i) lxor txn.Ec.Txn.data.(i - 1)))
    done

let l2_finish r =
  l2_close r;
  let i = r.l2_rows.r_intern in
  body_of r.l2_rows
    (L2
       {
         l2_off = Ivec.to_array i.Intern.off;
         l2_words = Ivec.to_array i.Intern.words;
       })

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
