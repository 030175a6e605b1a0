(** The abstraction-level hierarchy of the paper.

    [Rtl] is the register-transfer/gate-level reference ("layer 0", the
    role Diesel plays in the paper), [L1] the cycle-accurate transaction
    level layer one, [L2] the timing-estimation layer two, and [L3] the
    untimed message layer (the OCP taxonomy's layer three): serial
    blocking replay of its transactions through {!Ec.Port.transact} on
    the layer-2 carrier bus (DESIGN.md section 17.4), and so no level an
    adaptive window can switch to.

    This is the home of the type; {!Core.Level} re-exports it so existing
    call sites keep working while the mixed-level machinery in [Hier] can
    name levels without depending on [Core]. *)

type t = Rtl | L1 | L2 | L3

val timed : t list
(** Levels with their own timed bus model, [Rtl; L1; L2]: the paper's
    table sweeps and the levels an adaptive window can run at.  [L3]
    estimates through a carrier bus and is in neither. *)

val to_string : t -> string

val to_code : t -> int
(** Dense code (0/1/2/3) carried in {!Obs.Event} payload slots; renders
    back through [Obs.Event.level_name]. *)

val pp : Format.formatter -> t -> unit
