(** Analytic timing rules of the EC micro-protocol.

    These closed-form phase lengths are the single source of truth for the
    protocol timing: the RTL and layer-1 models realize them cycle by
    cycle, the layer-2 model consumes them as wait-state counters, and the
    test suite checks the cycle-accurate models against them on isolated
    transactions. *)

val addr_phase_cycles : Slave_cfg.t -> int
(** Cycles the address phase occupies: [addr_wait + 1].  A zero-wait
    address phase completes in the cycle it is initiated. *)

val data_phase_extra : Slave_cfg.t -> Txn.t -> int
(** Cycles the data phase adds after the address phase completes:
    [w + (burst - 1) * (w + 1)] with [w] the slave's read or write wait
    count.  Zero for a zero-wait single transfer: its only beat completes
    in the same cycle as its address phase. *)

val isolated_latency : Slave_cfg.t -> Txn.t -> int
(** Bus cycles a transaction occupies when it runs alone:
    [addr_phase_cycles + data_phase_extra]. *)
