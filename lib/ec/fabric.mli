(** Multi-master bus fabric: N master ports multiplexed onto one (or, with
    a bridge, two) single-master EC bus models.

    The paper's bus controllers are single-master: each exposes exactly
    one {!Port.t}.  The fabric is the controller front end that lets
    several masters share that port — an {!Arbiter} decides per cycle
    whose submission proceeds, transaction ids are remapped into a
    fabric-owned id space (masters keep their private id supplies; read
    data still lands in the master's own arrays, which the remapped
    transaction shares by pointer), and completions are routed back to
    the submitting master.  Because the underlying bus model is reused
    unchanged, the same fabric code runs on the RTL reference, layer 1
    and layer 2 — a degenerate fabric (one master, any policy) is
    bit-exact with the bare bus, which is what pins its correctness.

    {b Bridged topologies.}  An optional far-side bus port models a
    second bus behind a bridge: transactions whose address falls in the
    bridge window are accepted by the fabric, held for the bridge's
    crossing latency, then replayed onto the far port in FIFO order.
    Each crossing is priced at a configurable energy per beat, accounted
    to the crossing master.

    {b Per-master energy attribution.}  The fabric samples each bus's
    per-cycle energy through an abstract {!tap} and attributes every
    closed cycle to that bus's {e sticky owner} — the master whose
    submission the bus most recently accepted (master 0 before any
    grant).  Idle and drain cycles therefore bill to the last active
    requester, a deliberate modeling decision (DESIGN.md section 17):
    every picojoule lands in exactly one bucket, so the per-master
    energies sum to the fabric total {e by construction}, and a
    single-master fabric accumulates the identical float sequence as the
    bare bus's meter — bit-exact attribution in the degenerate case.

    The fabric is clocked by its owner: call {!on_rising} before the
    masters' rising-edge processes (it forwards matured bridge
    crossings) and {!on_falling} after the bus processes (it samples the
    energy taps and reopens the arbitration slot). *)

(** Per-cycle energy tap of one bus model, read on the falling edge after
    the bus process has closed its meter cycle: [cycles] is the meter's
    closed-cycle count and [last_cycle_pj] the energy of the most
    recently closed cycle.  The fabric samples only when [cycles]
    advanced, so buses that skip idle cycles are never double-counted. *)
type tap = { cycles : unit -> int; last_cycle_pj : unit -> float }

(** Far-side (bridged) bus attachment. *)
type far = {
  far_port : Port.t;  (** the far bus's master port *)
  far_tap : tap option;  (** its energy tap, when estimating *)
  window : int * int;
      (** \[lo, hi) byte-address window routed across the bridge *)
  latency : int;  (** crossing latency in cycles, at least 1 *)
  crossing_pj_per_beat : float;
      (** bridge energy per transferred beat, billed to the crossing
          master on acceptance *)
}

type t

val create :
  masters:int ->
  policy:Arbiter.policy ->
  bus:Port.t ->
  ?tap:tap ->
  ?far:far ->
  unit ->
  t
(** A fabric for master indices [0 .. masters-1] over near bus [bus].
    Without [tap] the energy buckets stay zero (an estimator-less run).
    @raise Invalid_argument if [masters < 1], the policy is malformed
    (see {!Arbiter.create}), or a [far] attachment has [latency < 1] or
    an empty window. *)

val port : t -> int -> Port.t
(** Master [m]'s view of the fabric: a {!Port.t} whose [try_submit]
    passes arbitration and id remapping, and whose [poll]/[retire]
    route by the master's own transaction ids. *)

(** {1 Integer observer (compiled fabric plans)}

    Mirrors the {!Tlm1.Energy}/{!Tlm2.Energy} observer hooks: a pure
    integer tap at each point where a float lands in a master bucket,
    carrying exactly the integers that determine the add.  The float
    path itself is untouched, so an observed run is bit-identical to an
    unobserved one (DESIGN.md section 18). *)
type observer = {
  obs_cross : master:int -> burst:int -> unit;
      (** a bridge crossing accepted by the fabric — the
          [crossing_pj_per_beat *. burst] add to [master]'s bucket, in
          the order the bucket receives it *)
  obs_near : owner:int -> cycle:int -> unit;
      (** the near tap advanced: closed meter cycle [cycle] (0-based in
          the bus taps' numbering) sampled into [owner]'s
          bucket *)
  obs_far : owner:int -> cycle:int -> unit;
      (** same, for the far (bridged) bus tap *)
}

val set_observer : t -> observer option -> unit

val on_rising : t -> unit
(** Clock hook, before the masters' processes: decrements crossing
    countdowns and forwards matured bridge transactions to the far bus
    (FIFO, as many as the far bus accepts). *)

val on_falling : t -> unit
(** Clock hook, after the bus processes: samples the energy taps into
    the sticky owners' buckets and opens the next cycle's arbitration
    slot. *)

val busy : t -> bool
(** True while any remapped transaction is still tracked (submitted or
    mid-crossing). *)

(** {1 Per-master accounting} *)

val master_pj : t -> int -> float
(** Master [m]'s attributed energy: its sticky-owner cycle samples plus
    its bridge-crossing energy. *)

val total_pj : t -> float
(** The fabric total, {e defined} as the sum of the master buckets in
    index order — per-master attribution is conservative by
    construction. *)

val master_txns : t -> int -> int
(** Completed transactions of master [m]. *)

val master_beats : t -> int -> int
val master_errors : t -> int -> int

val master_grants : t -> int -> int
(** Accepted submissions (near-side bus grants plus bridge crossings). *)

val crossings : t -> int
(** Bridge transactions forwarded to the far bus so far. *)

val bridge_pj : t -> float
(** Total bridge-crossing energy (already included in the master
    buckets and hence in {!total_pj}). *)

val reset : t -> unit
(** Buckets, counters, id maps, crossing queue, sticky owners, tap
    positions and the arbiter back to the freshly created state.  The
    ports and taps are wiring and stay; a set observer is cleared, as
    the energy-model resets do. *)
