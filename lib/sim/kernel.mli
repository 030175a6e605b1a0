(** Cycle-based simulation kernel.

    A minimal substitute for the SystemC 2.0 kernel used in the paper: the
    only scheduling semantics the bus models need are clocked processes
    sensitive to the rising or the falling edge of a single system clock
    ([SC_METHOD] style, re-evaluated on every edge), plus run control.

    Each simulated clock cycle executes all rising-edge processes (masters
    and slaves in the paper's models), then all falling-edge processes (the
    bus processes).  Processes registered on the same edge run in
    registration order.  A parked process is skipped until unparked
    (see {!park}), so a cycle costs only the processes with work. *)

type t
(** A simulation kernel instance with its own clock. *)

val create : unit -> t
(** [create ()] is a fresh kernel at time 0 with no processes. *)

val now : t -> int
(** [now k] is the number of completed clock cycles. *)

val on_rising : t -> name:string -> (t -> unit) -> unit
(** [on_rising k ~name f] registers [f] to run on every rising clock edge.
    [name] is used in diagnostics only. *)

val on_falling : t -> name:string -> (t -> unit) -> unit
(** Same as {!on_rising} for the falling edge. *)

(** {1 Parked processes}

    A process with nothing to do can leave the per-cycle loop and come
    back when it gets work, keeping its registration slot: edge and order
    are the same as if it had run on every edge in between.  Stepping
    therefore costs only the processes that have work.  The contract is
    the owner's: a process may be parked only while a step of it would
    change nothing but its idle accounting, which the owner settles in
    closed form from {!edges}.  {!Power.Component} does exactly that. *)

type handle
(** One registered position on an edge. *)

val slot : t -> name:string -> handle
(** [slot k ~name] reserves the next rising-edge position without a body,
    parked.  A component that accounts in closed form keeps a bodyless
    slot only for its place in the edge order ({!edges}); {!bind} turns a
    slot into a process that {!unpark} can start. *)

val bind : handle -> (t -> unit) -> unit
(** [bind h f] gives the slot [h] its per-edge body [f]; [h] stays parked.
    @raise Invalid_argument if [h] already has a body. *)

val park : handle -> unit
(** [park h] takes [h] out of the per-cycle loop.  Parking the process
    that is running, or one whose slot the running edge has not reached
    yet, takes effect at once.  No-op when already parked. *)

val unpark : handle -> unit
(** [unpark h] puts [h] back into its slot.  If the running edge has not
    reached the slot yet, [h] runs on this edge; otherwise it runs from the
    next one — exactly the edges it would have run on had it never been
    parked.  No-op when already running, and for a slot without a body. *)

val find : t -> name:string -> handle
(** [find k ~name] is the first process registered under [name] — for
    owners that park processes they did not register.
    @raise Invalid_argument if there is none. *)

val edges : handle -> int
(** [edges h] is the number of rising edges that have reached [h]'s slot
    since the kernel was created, parked or not: inside a rising edge it
    counts that edge only once the edge has passed the slot.  Monotonic —
    {!reset} does not rewind it.
    @raise Invalid_argument for a falling-edge handle. *)

val stop : t -> unit
(** [stop k] requests run termination; the current cycle still completes. *)

val reset : t -> unit
(** [reset k] rewinds the clock to 0 and clears any pending {!stop}
    request.  Registered processes are kept — the whole point of resetting
    is reusing the wired-up system — so the processes themselves must be
    reset by their owners, and so must their parking: reset un-parks
    nothing, and an owner whose reset leaves a process without work
    parks it.  {!edges} keeps counting across a reset. *)

val stopped : t -> bool
(** [stopped k] is [true] once {!stop} has been called. *)

val step : t -> unit
(** [step k] simulates one full clock cycle (rising then falling edge) and
    advances time by one. *)

val run : t -> cycles:int -> unit
(** [run k ~cycles] simulates at most [cycles] cycles, stopping early if
    {!stop} is requested. *)

val run_until : t -> ?max_cycles:int -> (unit -> bool) -> int
(** [run_until k ~max_cycles done_] steps until [done_ ()] holds, [stop]
    is requested, or [max_cycles] (default [1_000_000]) elapse.  Returns
    the number of cycles simulated by this call.

    @raise Failure if [max_cycles] elapse before [done_ ()] holds. *)

val process_names : t -> string list
(** Registered process names (parked or not, bodyless slots excluded),
    rising edge first, in registration order. *)

val runs : t -> (string * int) list
(** [runs k] pairs each name of {!process_names} with the number of times
    its process has run since the kernel was created. *)
