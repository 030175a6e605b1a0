(** Flat integer-keyed store over parallel preallocated arrays.

    The per-transaction-id store of the bus completion path: the finish
    store of [Iface] (shared by the rtl, layer-1 and layer-2 buses), the
    trace master's outstanding set, the fabric's per-master maps and the
    sink's issue cycles.  The population is bounded by the
    outstanding-transaction limits (a handful of entries), where a
    linear scan over an int array beats hashing and allocates nothing;
    lookups with a default avoid the [option] allocation of
    [Hashtbl.find_opt].  Removal swaps with
    the last entry, so sweeping with [value_at]/[remove_at] is
    allocation-free too (do not advance the index after removing).

    [dummy] fills vacated value slots so removed values do not leak
    through the backing array. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] defaults to 16 entries; the store doubles if it fills. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val mem : 'a t -> int -> bool

val set : 'a t -> int -> 'a -> unit
(** Insert, or replace the value bound to an existing key. *)

val find_default : 'a t -> int -> default:'a -> 'a

val remove : 'a t -> int -> unit
(** No-op when the key is absent. *)

val value_at : 'a t -> int -> 'a
(** Positional access for sweep loops; positions are stable only until
    the next [remove]/[remove_at].  @raise Invalid_argument out of
    range. *)

val remove_at : 'a t -> int -> unit
(** Remove the entry at a position by swapping the last entry into it. *)

val clear : 'a t -> unit
(** Drop every entry (vacated value slots are re-filled with [dummy] so
    nothing leaks through the backing array); capacity is kept. *)
