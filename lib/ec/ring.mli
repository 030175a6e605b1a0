(** Preallocated FIFO over a circular buffer.

    A drop-in replacement for the unbounded [Queue.t]s on the bus
    datapaths: pushes write into preallocated slots instead of allocating
    a cell per element, so steady-state simulation does not allocate.
    The buffer doubles (one allocation) if it ever fills; the bus queues
    are bounded by the outstanding-transaction limits, so with the
    default capacity they never do.

    [dummy] fills empty slots so popped elements do not leak through the
    backing array. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] defaults to 16 slots and is rounded up to a power of
    two. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail; grows the buffer when full. *)

val peek : 'a t -> 'a
(** The oldest element, left in place.
    @raise Invalid_argument if the ring is empty. *)

val pop : 'a t -> 'a
(** Removes and returns the oldest element; unlike {!pop_opt} it
    allocates nothing.
    @raise Invalid_argument if the ring is empty. *)

val pop_opt : 'a t -> 'a option

val clear : 'a t -> unit
