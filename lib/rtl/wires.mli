(** The physical wire set of the register-transfer-level bus model.

    One {!Sim.Signal} per EC interface signal group, plus the internal
    one-hot slave select lines of the bus controller.  All drivers write
    next values during the falling-edge bus process; {!commit_all} then
    commits every signal at the end of the cycle (after the power
    estimator has observed the old/new pairs). *)

type t

val create : n_slaves:int -> t
(** @raise Invalid_argument if [n_slaves] is outside 1..62. *)

val addr : t -> Sim.Signal.t  (** EB_A[35:2], 34 bits *)

val be : t -> Sim.Signal.t  (** EB_BE, 4 bits *)

val wdata : t -> Sim.Signal.t  (** EB_WData, 32 bits *)

val rdata : t -> Sim.Signal.t  (** EB_RData, 32 bits *)

val sel : t -> Sim.Signal.t  (** internal one-hot slave selects *)

val ctrl : t -> Ec.Signals.ctrl -> Sim.Signal.t

val set_ctrl : t -> Ec.Signals.ctrl -> bool -> unit

val interface_groups : t -> (Ec.Signals.id * Sim.Signal.t) list
(** Every interface signal paired with the {!Ec.Signals.id} of its bit 0,
    in dense index order; excludes the internal select lines. *)

val commit_all : t -> unit

val reset : t -> unit
(** Every wire (values and transition counters) back to the created
    state. *)
