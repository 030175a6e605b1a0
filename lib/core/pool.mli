(** Pools of resettable simulation sessions and memoized plans.

    Building a session ({!System.create} and friends) allocates a
    kernel, the full platform, a bus model and its energy estimator —
    thousands of allocations per exploration grid cell.  With the reset
    protocol ({!System.reset}, [Soc.*.reset], the bus resets) a session
    can instead be rewound to its creation state in place, so a sweep
    rebuilds nothing after the first cell of each configuration shape.

    Check-out is keyed by a caller-supplied string fingerprinting the
    configuration shape (level, estimator parameters, platform options —
    everything {i not} undone by reset).  The store belongs to the pool:
    one table behind one mutex, shared by every domain that holds the
    pool (each worker of {!Parallel.map}, each serve worker) and
    garbage-collected with it.  A checked-out session is held by one
    caller at a time; no build, reset or workload runs under the lock. *)

type t

type 'a kind
(** A type witness for one shape of pooled session record.  Create one
    per session type at module initialisation ([let k : foo kind =
    kind ()]) and use the same witness for every access; entries stored
    under a different witness are never returned, even on key collision. *)

val kind : unit -> 'a kind

val create : unit -> t
(** Each key's free-list holds at most 4 sessions — beyond that,
    released sessions are dropped for the GC. *)

val with_session :
  t ->
  'a kind ->
  key:string ->
  build:(unit -> 'a) ->
  reset:('a -> unit) ->
  ('a -> 'b) ->
  'b
(** [with_session t k ~key ~build ~reset f] runs [f] on a session for
    configuration [key]: a pooled one after [reset], else a fresh
    [build ()].  On normal return the session goes back to the
    free-list; if [f] raises, the session is dropped (its half-run
    state is not trusted to reset) and the exception propagates. *)

val hits : t -> int
(** Checkouts served from the pool. *)

val builds : t -> int
(** Checkouts that had to build fresh. *)

val memo : t -> 'a kind -> tag:string -> key:string -> (unit -> 'a) -> 'a
(** [memo t k ~tag ~key build] caches an immutable value (a compiled
    plan, typically) in the pool's store: the first call per key runs
    [build], later calls on any domain return the cached value without
    checkout or reset.  [build] runs outside the lock; if two domains
    miss on one key at once, both count a build and the first value
    stored is the one kept and returned.  Memo entries are exempt from
    the capacity bound and live for the pool's lifetime; their keys
    never collide with session keys.  Since the value is shared, callers
    must not mutate it.

    [tag] names the value's kind (["trace"], ["fabric"], ["explore"]) for
    the per-kind hit/build breakout of {!memo_tag_stats}. *)

val memo_tag_stats : t -> (string * int * int) list
(** Per-tag memo counters as [(tag, hits, builds)], sorted by tag. *)

val memo_hits : t -> int
(** Memo lookups served from cache: the sum of the per-tag hits. *)

val memo_builds : t -> int
(** Memo lookups that ran their build: the sum of the per-tag builds. *)

val fingerprint : 'a -> string
(** Structural fingerprint for pool keys, via [Marshal] + [Digest].
    Apply to pure-data configuration values only (no closures). *)
