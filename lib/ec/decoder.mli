(** Address decoder of the bus controller.

    The EC interface itself supports a single slave; the bus controller
    adds the address decoder and control logic so several slaves can be
    attached (paper, chapter 1 and 3).  The same decoder instance is shared
    by the RTL, layer-1 and layer-2 models. *)

type t

(** Outcome of decoding one transaction. *)
type access =
  | Mapped of int * Slave.t  (** slave select index and slave *)
  | Unmapped
  | Rights_violation of int * Slave.t

val create : Slave.t list -> t
(** @raise Invalid_argument if two slave ranges overlap. *)

val count : t -> int
val slaves : t -> Slave.t list

val find : t -> int -> (int * Slave.t) option
(** [find t addr] is the slave mapped at byte address [addr], if any. *)

val check : t -> Txn.t -> access
(** Full decode of a transaction including the access-right bits.  A burst
    must fit entirely inside one slave's range, otherwise it is
    [Unmapped]. *)
