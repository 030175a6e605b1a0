(** Behavioural interface of an EC bus slave.

    A slave couples a {!Slave_cfg.t} (queried by the bus through the slave
    control interface) with per-beat data callbacks.  Wait states are
    inserted by the bus models, not by the callbacks; the callbacks only
    transport data, which keeps one behavioural model usable under every
    abstraction level (RTL, TL layer 1 per beat, TL layer 2 per block). *)

type t = private {
  cfg : Slave_cfg.t;
  read : addr:int -> width:Txn.width -> int;
      (** One beat; the result is the naturally aligned value in the low
          bits of the returned word. *)
  write : addr:int -> width:Txn.width -> value:int -> unit;
}

val make :
  cfg:Slave_cfg.t ->
  read:(addr:int -> width:Txn.width -> int) ->
  write:(addr:int -> width:Txn.width -> value:int -> unit) ->
  t

val placeholder : t
(** An inert slave (reads 0, ignores writes) for the empty slots of the
    bus models' preallocated queues; never decoded to. *)

val read_beat : t -> Txn.t -> int -> int
(** [read_beat s txn i] performs beat [i] of read transaction [txn]. *)

val write_beat : t -> Txn.t -> int -> unit
(** [write_beat s txn i] delivers beat [i] of write transaction [txn]. *)

val read_block : t -> Txn.t -> unit
(** Layer-2 style block transport: performs every beat of [txn] at once,
    storing results into [txn.data]. *)

val write_block : t -> Txn.t -> unit
