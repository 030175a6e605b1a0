(** Multicore fan-out over independent simulations.

    The experiment definitions (accuracy tables, exploration sweeps,
    ablations) are lists of fully independent [System.create]-rooted
    simulations; this module maps over them on OCaml 5 domains.  Every
    simulation is deterministic and self-contained, and results are
    collected by input index, so a parallel map returns exactly the list
    the serial map would — domain scheduling can never change a reported
    number.

    [?domains] bounds the number of domains; it defaults to
    [Domain.recommended_domain_count ()] and is additionally capped by the
    list length.  [~domains:1] (or a one-core machine) degrades to plain
    [List.map] with no domain spawned. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  If any application raises, the first
    failure (in claim order) is re-raised after all workers have
    stopped.  Every call spawns its worker domains and joins them before
    returning. *)
