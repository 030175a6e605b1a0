(** The abstraction-level hierarchy of the paper.

    [Rtl] is the register-transfer/gate-level reference ("layer 0", the
    role Diesel plays in the paper), [L1] the cycle-accurate transaction
    level layer one, [L2] the timing-estimation layer two, and [L3] the
    untimed message layer replaying through the {!Tlm3} bridge onto a
    timed carrier bus (DESIGN.md section 17.4).

    The type itself lives in {!Hier.Level} (the mixed-level subsystem
    names levels without depending on [Core]); this module re-exports it,
    so [Core.Level.L1] and [Hier.Level.L1] are the same constructor. *)

type t = Hier.Level.t = Rtl | L1 | L2 | L3

val all : t list
(** The three directly comparable estimation levels of the paper's
    tables, [Rtl; L1; L2]; see {!Hier.Level.all}. *)

val timed : t list
(** Levels with their own timed bus model: [Rtl; L1; L2]. *)

val has_plan : t -> bool
(** Whether runs at this level can compile into a replay plan
    (DESIGN.md section 14): true at [L1] and [L2], whose energy models
    have an integer tap; false at [Rtl] and [L3].  Sweeps fold such
    cells off a memoized plan; every other run interprets. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
