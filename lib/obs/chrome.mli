(** Chrome trace-event JSON export (Perfetto / chrome://tracing).

    Renders a {!Sink}'s event timeline as a Chrome trace-event document
    ({"traceEvents": [...]}) with one cycle mapped to one microsecond:

    - one duration track per master category lane (issue → finish spans;
      concurrent transactions of a category spread over lanes so every
      track carries strictly sequential, balanced B/E pairs),
    - one instant track per slave (data beats),
    - a level track with one B/E span per mixed-level window, the close
      event carrying the window's spliced energy in its [args], plus
      level-switch instants,
    - [bus_pj] counter samples from {!Event.Energy_sample} events and an
      optional per-cycle [pj_per_cycle] counter from a recorded
      {!Power.Profile.t} (downsampled to at most 2048 points).

    Spans whose begin or end fell outside the ring (dropped events) are
    omitted, keeping B/E pairs balanced by construction. *)

(** {1 Event constructors}

    The raw trace-event builders, shared with other exporters (the
    service telemetry plane builds its worker-lane trace from these). *)

val ev :
  ?args:(string * Json.t) list ->
  name:string ->
  ph:string ->
  ts:int ->
  tid:int ->
  unit ->
  Json.t
(** One trace event: [ph] is the Chrome phase ("B"/"E"/"i"/...). *)

val counter : name:string -> ts:int -> value:float -> Json.t
(** A counter-track sample (ph "C", tid 0). *)

val meta : name:string -> tid:int -> label:string -> Json.t
(** A metadata event (ph "M"): [name] is ["process_name"] or
    ["thread_name"], [label] the displayed name. *)

(** {1 Sink export} *)

val to_string : Sink.t -> string
(** The sink's trace document, with generic slave track names and no
    energy counter track. *)

val write :
  ?profile:Power.Profile.t ->
  slave_names:string array ->
  path:string ->
  Sink.t ->
  unit
(** Writes the trace document to [path].  [slave_names.(i)] names slave
    track [i] (["slave<i>"] past its end); [profile] adds an energy
    counter track. *)
