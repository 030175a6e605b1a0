(** Typed lifecycle events of a simulation run.

    Every instrumentation point in the bus models, the trace master and
    the mixed-level engine reduces to one of these shapes.  An event is a
    flat record of scalars — kind, timestamp and three payload slots —
    so the {!Sink} can keep them in preallocated parallel arrays and
    recording never allocates.

    Payload conventions per kind (unused slots are [-1] / [0.0]):

    - [Txn_issued]: [id] = transaction id, [arg] = outstanding category
      (0 instr-read, 1 data-read, 2 write), [arg2] = request-queue depth
      at acceptance.
    - [Txn_rejected]: a submission the bus refused (bus state [Wait] at
      the master); [id], [arg] as for [Txn_issued].
    - [Txn_granted]: address phase completed; [arg] = slave index.
    - [Data_beat]: one data beat transferred; [arg] = beat index,
      [arg2] = slave index.
    - [Txn_finished]: [arg] = beats moved, [value] = latency in cycles
      from issue (negative when the issue event was not seen).
    - [Txn_error]: the bus terminated the transaction with an error.
    - [Window_open] / [Window_close]: mixed-level window span; [id] =
      window index, [arg] = level code, and on close [value] = the
      window's spliced bus energy \[pJ\], [arg2] = beats.
    - [Level_switch]: [id] = window index opening, [arg] = previous
      level code, [arg2] = next level code.
    - [Energy_sample]: [value] = bus energy \[pJ\] accumulated since the
      previous sample. *)

type kind =
  | Txn_issued
  | Txn_rejected
  | Txn_granted
  | Data_beat
  | Txn_finished
  | Txn_error
  | Window_open
  | Window_close
  | Level_switch
  | Energy_sample

type t = {
  kind : kind;
  cycle : int;  (** timestamp on the run's (spliced) cycle timeline *)
  id : int;
  arg : int;
  arg2 : int;
  value : float;
}

val kind_code : kind -> int
(** Dense code, stable across a session; inverse {!kind_of_code}. *)

val kind_of_code : int -> kind
(** @raise Invalid_argument on an unknown code. *)

val level_name : int -> string
(** Conventional names for the level codes carried in [arg]/[arg2]:
    0 = "gate-level", 1 = "l1", 2 = "l2"; other codes render as
    ["level-N"].  The codes are assigned by the recording layer
    ({!Hier.Level.to_code}). *)

val category_name : int -> string
(** Outstanding-category names: 0 = "instr-read", 1 = "data-read",
    2 = "write". *)
