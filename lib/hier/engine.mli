(** The mixed-level switch controller.

    One simulation, one timeline: a caller keeps {e one} kernel with a
    bus front-end per level attached to it, and asks {!Live.next_level}
    before every transaction which front-end to route it through.  The
    session does the policy bookkeeping — window lengths, level
    decisions, each window's {!Splice.seg} as the difference of two
    front-end snapshots — and {!Live.finish} splices the windows with
    {!Splice}.  The traffic may be replayed (a trace master) or
    generated (a JCVM interpreter pushing hardware-stack operations
    while the sweep is still deciding what happens next); the session
    cannot tell the difference.

    {b Quiesce rule.}  A window closes only at a quiesced front-end: a
    transaction that would close the window is refused until every
    transaction the front-end accepted has been retired, so no
    transaction — and none of its energy — straddles two windows.  The
    only state crossing a switch is the one shared platform itself;
    nothing is copied.

    {b One timeline.}  The first window opens at cycle 0 of a fresh or
    reset kernel and each later one where its predecessor closed, so the
    windows tile the run and sink events carry true kernel cycles.  A
    policy without triggers ({!Policy.constant}) never switches and
    yields one window measured exactly like the pure run, which is what
    pins the degenerate cases bit-for-bit. *)

module Live : sig
  type t

  val create :
    ?sink:Obs.Sink.t ->
    on_close:(Splice.seg -> unit) ->
    policy:Policy.t ->
    measure:(Level.t -> Splice.seg) ->
    unit ->
    t
  (** [measure level] must return the cumulative traffic and energy
      counters of [level]'s bus front-end as a segment of that [level],
      with [cycles] the shared kernel's current cycle (identical
      whichever level is asked) and [profile] the front-end's recorded
      per-cycle profile, if any.  A front-end must run on exactly the
      cycles of its windows (parked otherwise), so a window's profile is
      the last [cycles] entries of its front-end's profile at the close.
      {!finish} splices the windows with {!Splice.splice}.

      The window bounds are the policy's [min_window] and [max_window];
      a policy's decisions read only the next transaction's index and
      address and the previous window's power, so the session never
      reads the clock between windows.

      [on_close] is invoked with each window's segment the moment the
      window closes — the hook live calibration hangs off: a refined
      window's measured energy re-derives the fast level's lump
      parameters before the next fast window opens.

      With [sink] the session records a [Window_open]/[Window_close]
      pair per window (the close carries the window's beat count and
      bus energy in pJ), a [Level_switch] instant whenever consecutive
      windows differ in level and one [Energy_sample] per window at its
      close. *)

  val next_level : t -> addr:int -> quiesced:bool -> Level.t option
  (** Which level simulates the next transaction (to [addr]).  Opens the
      first window at cycle 0; later closes the current window and opens
      a new one first — at a level switch once the window has
      [min_window] transactions, or unconditionally at [max_window].
      A close needs [quiesced] (no transaction in flight on the current
      front-end): without it the answer is [None] and nothing changes,
      so the caller refuses the transaction and asks again on the
      master's retry.  Otherwise the caller routes the transaction
      through the returned level's front-end before calling again. *)

  val finish : t -> Splice.t
  (** Close the open window and splice.  Call once, after the last
      transaction has been retired. *)
end
