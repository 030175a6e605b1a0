(** Applet firewall (context isolation), one of the functional blocks of
    the paper's Figure 7 Java Card model.

    Every object belongs to the context (applet) that allocated it.  An
    access from a different context is denied unless the object has been
    explicitly shared, or the accessor is the Java Card runtime
    environment context. *)

type ctx = private int
type t

exception Security_violation of { from_ctx : int; obj : int }

val create : unit -> t

val jcre : ctx
(** The runtime-environment context (may access everything). *)

val new_context : t -> ctx
(** Registers a fresh applet context. *)

val register_object : t -> owner:ctx -> obj:int -> unit
(** @raise Invalid_argument if [obj] is already registered. *)

val share : t -> obj:int -> unit
(** Marks an object shareable across contexts. *)

val accessible : t -> from_ctx:ctx -> obj:int -> bool

val check : t -> from_ctx:ctx -> obj:int -> unit
(** @raise Security_violation when {!accessible} is false.
    @raise Invalid_argument for an unregistered object. *)

val owner : t -> obj:int -> ctx option
val denied_accesses : t -> int
(** Number of accesses {!check} has refused (a security statistic). *)
