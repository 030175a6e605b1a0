(** The bus lifecycle event ledger: every {!Obs.Event.t} that a
    pipelined trace replay records at the rtl, l1, l2 and l3 levels,
    over two fixed traces.  One trace issues with zero gaps into slow
    slaves, so each outstanding category sits at its limit of four and
    submissions are rejected; the other reads an unmapped address and
    writes into ROM, so both decode failures end in an error event.  A
    recorded copy pins the exact cycles, categories, queue depths and
    payloads the buses emit. *)

val text : ?pool:Core.Pool.t -> unit -> string
(** One line per event:
    [trace level kind cycle id arg arg2 value], with [value] as a hex
    float, in record order per run.  With [pool] every run draws its
    session from it, so the second trace's runs, and all runs of a
    second call, replay on reset sessions of earlier runs.

    @raise Failure when a run's sink dropped events. *)
