(** The non-blocking master interface shared by every bus model.

    The paper's master interfaces are non-blocking: the master invokes the
    bus every clock cycle until the bus answers ok or error.  We split the
    paper's single repeated call into [try_submit] (the first call, whose
    answer is the [Request]/[Wait] acceptance) and [poll] (the repeated
    calls, whose answer is [Wait]/[Ok]/[Error]).  Masters written against
    this record run unchanged on the RTL, layer-1 and layer-2 models.

    The fields are mutable for one owner only: a router that hands a
    port of its own to masters (the mixed-level session, DESIGN.md
    section 10) re-points it in place, so a master polls the routed bus
    with no forwarding call.  Everyone else treats a port as fixed. *)

type poll = Pending | Done | Failed

type t = {
  mutable try_submit : Txn.t -> bool;
      (** [true] when the request was accepted (queue space available in
          its outstanding category); the master must retry next cycle
          otherwise. *)
  mutable poll : int -> poll;
      (** Completion state of an accepted transaction by id.  For reads,
          [Done] implies the transaction's data array has been filled.
          Non-destructive: keeps answering until {!field-retire}. *)
  mutable retire : int -> unit;
      (** Releases the bus-side completion record of a finished
          transaction.  Masters call it once they have consumed the
          result, keeping the bus bookkeeping bounded. *)
}

val completed : t -> int -> bool
(** [completed p id] is true once [poll] answers [Done] or [Failed]. *)

val take : t -> int -> poll
(** [take p id] polls and, when finished, retires in one step. *)

val transact : kernel:Sim.Kernel.t -> t -> Txn.t -> poll
(** [transact ~kernel p txn] is the blocking master adapter of the
    paper's Java Card case study: it drives the non-blocking interface
    for an untimed caller until [txn] finishes.  It submits once, then
    steps [kernel] cycle by cycle, resubmitting while the bus refuses,
    until the transaction is accepted and complete; it then polls the
    outcome, retires the transaction and returns [Done] or [Failed]
    ([Pending] only when a process stops [kernel] first).
    For a read, [Done] means [txn]'s data array holds the result.
    Raises [Failure] (from {!Sim.Kernel.run_until}) when the transaction
    has not finished after 100 000 cycles. *)
