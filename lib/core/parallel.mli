(** Multicore fan-out over independent simulations.

    The experiment definitions (accuracy tables, exploration sweeps,
    ablations) are lists of fully independent [System.create]-rooted
    simulations; this module maps over them with a pool of OCaml 5
    domains.  Every simulation is deterministic and self-contained, and
    results are collected by input index, so a parallel map returns
    exactly the list the serial map would — domain scheduling can never
    change a reported number.

    [?domains] bounds the pool; it defaults to
    [Domain.recommended_domain_count ()] and is additionally capped by the
    list length.  [~domains:1] (or a one-core machine) degrades to plain
    [List.map] with no domain spawned. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

type pool
(** A persistent set of worker domains.  Spawning a domain dwarfs the
    cost of a small simulation, so drivers that issue many maps (the
    exploration grid, adaptive sweeps) create one pool and pass it to
    every {!map} — batches reuse the same domains, which also keeps any
    [Domain.DLS]-held session caches ({!Pool}) warm across batches. *)

val with_pool : domains:int -> (pool -> 'a) -> 'a
(** Runs [f] with a live pool of [domains] total participants (the
    calling domain included), then shuts the
    workers down — also when [f] raises.  Maps over the pool must not be
    nested: [f] passed to an inner {!map} must not itself map over the
    same pool. *)

val map : ?domains:int -> ?pool:pool -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  If any application raises, the first
    failure (in claim order) is re-raised after all workers have
    stopped.  With [?pool] the batch runs on the pool's persistent
    domains and [?domains] is ignored; results, ordering and failure
    semantics are identical. *)
