(** Memory manager of the Java Card model (Figure 7): static fields and a
    bounds-checked short-array heap, with every array access vetted by the
    {!Firewall}. *)

type t

exception Out_of_memory
exception Bounds of { obj : int; index : int; length : int }

val create : ?heap_shorts:int -> Firewall.t -> t
(** 64 static fields; [heap_shorts] defaults to 4096. *)

val get_static : t -> int -> int
val set_static : t -> int -> int -> unit
(** Values are truncated to signed shorts.
    @raise Invalid_argument on an index outside the static area. *)

val alloc_array : t -> ctx:Firewall.ctx -> len:int -> int
(** Allocates a zeroed short array, registers it with the firewall and
    returns its reference.
    @raise Out_of_memory when the heap is exhausted.
    @raise Invalid_argument on a negative length. *)

val load : t -> ctx:Firewall.ctx -> obj:int -> index:int -> int
val store : t -> ctx:Firewall.ctx -> obj:int -> index:int -> int -> unit
val length : t -> ctx:Firewall.ctx -> obj:int -> int
(** @raise Firewall.Security_violation on a cross-context access.
    @raise Bounds on an out-of-range index. *)

val free_shorts : t -> int
