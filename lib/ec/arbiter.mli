(** Bus-grant arbitration policies for multi-master fabrics.

    The EC interface itself is a single-master specification; when several
    masters share one bus controller, the controller's front end must
    decide, cycle by cycle, whose request wins the submission slot.  This
    module is that decision logic, kept free of any clocking or port
    plumbing so the same arbiter state machine serves every abstraction
    level (the {!Fabric} wires it to the RTL, layer-1 and layer-2 models
    unchanged).

    The arbiter grants at most one submission per clock cycle.  Within a
    cycle, masters attempt in their simulation process order; a master is
    refused when the grant is already taken or when another master that is
    {e known to be waiting} (it was refused earlier and is still retrying)
    outranks it under the active policy.  Because refused masters retry
    every cycle, the waiting set is exact one cycle after contention
    appears, which gives the classic arbitration behaviours: strict
    preemption under fixed priority, single-cycle rotation under
    round-robin, and burst-weighted rotation under weighted round-robin. *)

(** Grant policy.

    - [Fixed_priority]: the lowest master index always outranks higher
      ones.  Starvation-prone by design — the policy the contention
      studies use as the worst-case fairness baseline.
    - [Round_robin]: the master after the last-granted index (cyclically)
      ranks first; each grant rotates the pointer, so every continuously
      requesting master is granted within [masters] grants of its first
      refusal (the no-starvation property of the test suite).
    - [Weighted]: round-robin over grant {e bursts}: the holder keeps top
      rank for up to its weight of consecutive grants before the pointer
      rotates.  Weights must be positive; a weight of 1 for every master
      degenerates to [Round_robin]. *)
type policy = Fixed_priority | Round_robin | Weighted of int array

val policy_to_string : policy -> string
(** ["fixed"], ["rr"], or ["wrr:w0,w1,..."] — the CLI spelling. *)

val policy_of_string : string -> policy option
(** Inverse of {!policy_to_string}; [None] on an unknown spelling. *)

type t

val create : masters:int -> policy:policy -> t
(** A fresh arbiter for master indices [0 .. masters-1].

    @raise Invalid_argument if [masters < 1], or a [Weighted] policy
    carries a weight vector whose length differs from [masters] or a
    non-positive weight. *)

val policy : t -> policy

val attempt : t -> int -> bool
(** [attempt t m] is the per-cycle arbitration query: may master [m] try
    the submission slot now?  [false] (slot already taken this cycle, or
    a known-waiting master outranks [m]) records [m] as waiting, so its
    claim outranks later-arriving weaker masters.  [true] commits
    nothing: the caller forwards the submission downstream and reports
    the outcome with {!commit} or {!note_refused}.  The arbiter is
    work-conserving — a master refused by downstream back-pressure does
    not consume the cycle's slot, so a weaker master with queue space may
    still proceed in the same cycle.  Callers must bracket cycles with
    {!new_cycle}. *)

val commit : t -> int -> unit
(** The downstream bus accepted [m]'s submission: consume the cycle's
    slot, rotate the round-robin pointer / weighted credits, clear [m]'s
    waiting flag and count the grant. *)

val note_refused : t -> int -> unit
(** Records [m] as waiting without consuming the slot — the refusal came
    from downstream back-pressure (bus queues full) rather than from
    arbitration, so [m]'s fairness claim still accumulates. *)

val new_cycle : t -> unit
(** Opens the next cycle's submission slot.  Waiting flags persist — they
    are cleared individually by {!commit}. *)

val waiting : t -> int -> bool

val grants : t -> int -> int
(** Submissions granted to a master so far. *)

val total_grants : t -> int

val reset : t -> unit
(** Back to the freshly created state: pointer, credits, waiting flags
    and grant counters all clear.  The policy is immutable. *)
