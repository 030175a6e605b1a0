(** The hardware operand stack: an EC bus slave whose special function
    registers expose push/pop to the refined Java Card VM.

    This is the paper's "slave adapter + functional stack model" in one
    unit: bus accesses are decoded according to the interface
    {!Configs.t} and forwarded to an internal stack storage.  Underflow
    and overflow do not raise across the bus: an underflow sets a sticky
    status counter that the exploration checks afterwards, an overflowing
    push is dropped. *)

type t

val create : Configs.t -> t
(** A stack of 256 shorts. *)

val slave : t -> Ec.Slave.t
(** Slave with the configuration's SFR window (zero wait states). *)

val depth : t -> int
val contents : t -> int list  (** top first *)

val underflows : t -> int

val reset : t -> unit
(** Empties the stack and clears latches and counters, as freshly
    created. *)
