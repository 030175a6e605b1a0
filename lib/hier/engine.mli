(** The mixed-level switch controller.

    The engine partitions a transaction trace into windows, asks the
    {!Policy} which level simulates each window, and drives one system
    per window through the backend [ops], splicing the per-window energy
    measurements with {!Splice}.

    Switch points are quiescent by construction: a segment runs until its
    share of the trace has drained {e and} every outstanding EC burst has
    completed (the 4+4+4 outstanding-category limits make this a finite
    wait), so the only state crossing a switch is architectural —
    memories, decoder configuration, wait-state parameters — which
    [ops.handoff] copies into the next system.  A policy that never
    switches yields exactly one window driven exactly like the pure run,
    which is what pins the degenerate cases bit-for-bit.

    The engine is backend-polymorphic so it can live below [Core]:
    [Core.Runner.run_adaptive] instantiates ['sys] with [Core.System.t]. *)

type stats = {
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  profile : Power.Profile.t option;
}

type 'sys ops = {
  create : Level.t -> 'sys;  (** fresh system at the window's level *)
  init : 'sys -> unit;  (** user initialisation, first system only *)
  handoff : prev:'sys -> next:'sys -> unit;
      (** copy architectural state across a switch point *)
  run_segment : 'sys -> Ec.Trace.t -> stats;
      (** replay the window's slice of the trace to quiescence and
          report the window's measurements *)
}

type 'sys result = {
  splice : Splice.t;
  last_system : 'sys option;  (** the final window's system, for inspection *)
}

val run :
  ?sink:Obs.Sink.t ->
  ?retire:('sys -> unit) ->
  ops:'sys ops ->
  policy:Policy.t ->
  Ec.Trace.t ->
  'sys result
(** The windows splice with {!Splice.splice}.

    [retire] is called on each window's system right after its
    architectural state has been handed off to the next window — the
    hook a session pool uses to reclaim systems mid-run.  The final
    window's system is never retired; it escapes via [last_system].

    When [sink] is given the engine records the window lifecycle on it:
    a [Window_open]/[Window_close] pair per window (the close carries
    the window's beat count and spliced bus energy in pJ), a
    [Level_switch] instant whenever consecutive windows simulate at
    different levels, and one [Energy_sample] per window at its end
    cycle.  Each window runs on a fresh kernel starting at cycle 0, so
    the engine moves the sink's base offset ({!Obs.Sink.set_base}) to
    the window's spliced start before running the segment — bus- and
    master-recorded events land on the global spliced timeline.  The
    base is restored to 0 afterwards. *)

(** A live mixed-level session: the switch controller for runs where the
    traffic is {e generated}, not replayed — e.g. a JCVM interpreter
    pushing hardware-stack operations through a master adapter while the
    sweep is still deciding what happens next.

    Where {!run} owns the systems (one fresh kernel per window), a live
    session owns nothing: the caller keeps {e one} shared kernel with a
    bus front-end per level attached to it, and asks {!Live.next_level}
    before every transaction which front-end to route it through.  The
    session does the policy bookkeeping — window lengths, level
    decisions, per-window measurement diffs — and {!Live.finish} splices
    the windows exactly as the trace engine would.

    Because every level shares the one kernel, all windows already live
    on a single timeline: sink events are recorded at true kernel cycles
    and no {!Obs.Sink.set_base} shifting happens (contrast with {!run}).
    Per-window figures are differences of the [measure] snapshots taken
    when the window opens and closes, so [measure] must report
    {e cumulative} counters for the requested level plus the shared
    global cycle count. *)
module Live : sig
  type t

  val create :
    ?sink:Obs.Sink.t ->
    now:(unit -> int) ->
    on_close:(Splice.seg -> unit) ->
    policy:Policy.t ->
    measure:(Level.t -> stats) ->
    unit ->
    t
  (** [measure level] must return the cumulative traffic and energy
      counters of [level]'s bus front-end, with [cycles] the shared
      kernel's current cycle (identical whichever level is asked).
      {!finish} splices the windows with {!Splice.splice}.

      [now] is the cheap clock for per-transaction policy observations
      (cycle-window and rate triggers): the kernel's own counter, not a
      full [measure] snapshot, which typically sums energy meters.

      [on_close] is invoked with each window's segment the moment the
      window closes — the hook live calibration hangs off: a refined
      window's measured energy re-derives the fast level's lump
      parameters before the next fast window opens. *)

  val next_level : t -> addr:int -> Level.t
  (** Ask which level simulates the next transaction (to [addr]).  May
      close the current window and open a new one first — at a level
      switch once the window has [min_window] transactions, or
      unconditionally at [max_window] (mirroring {!run}'s window
      splitting).  The caller routes the transaction through the
      returned level's front-end before calling again. *)

  val finish : t -> Splice.t
  (** Close the open window and splice.  Call once, after the last
      transaction has completed on the bus. *)
end
