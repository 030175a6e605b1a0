(** The abstraction-level hierarchy of the paper.

    [Rtl] is the register-transfer/gate-level reference ("layer 0", the
    role Diesel plays in the paper), [L1] the cycle-accurate transaction
    level layer one, [L2] the timing-estimation layer two, and [L3] the
    untimed message layer: serial blocking replay through
    {!Ec.Port.transact} on the layer-2 carrier bus (DESIGN.md section
    17.4).  Runs at every level compile into replay plans (DESIGN.md
    section 14), kept where they fold at more than one point: grid cells
    memoize their answer, single runs interpret.

    The type itself lives in {!Hier.Level} (the mixed-level subsystem
    names levels without depending on [Core]); this module re-exports it,
    so [Core.Level.L1] and [Hier.Level.L1] are the same constructor. *)

type t = Hier.Level.t = Rtl | L1 | L2 | L3

val timed : t list
(** Levels with their own timed bus model, [Rtl; L1; L2] — the three
    directly comparable estimation levels of the paper's tables and the
    levels a mixed-level run can switch between. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
