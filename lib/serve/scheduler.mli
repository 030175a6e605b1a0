(** Job execution: one validated request against the simulation stack.

    Every worker domain calls {!execute} with the {e same} {!Core.Pool.t},
    whose one store of reset sessions and compiled plans they all share,
    so a repeat query rebuilds nothing and re-interprets nothing on any
    worker.  Response
    frames stream through [send] as they are produced (per-row
    exploration results, per-point replay results, energy-profile
    chunks); the server appends the terminating [done] frame.

    Results are bit-identical to the equivalent direct in-process
    {!Core.Runner} / {!Core.Exploration} call: pooled sessions reproduce
    fresh builds exactly (DESIGN.md section 13) and compiled plans
    reproduce interpretation exactly (section 14). *)

val execute :
  pool:Core.Pool.t ->
  stats:(unit -> Protocol.stats_body) ->
  send:(Protocol.frame -> unit) ->
  Protocol.request ->
  unit
(** Runs a [Run]/[Explore]/[Replay]/[Stats] job.  [Shutdown] is a
    control request the server never forwards here.
    @raise Invalid_argument on [Shutdown].
    Simulation exceptions propagate; the server turns them into a
    [failed] error frame. *)
