(* In-memory spans around the benchmark's calls into each layer.

   One recorder per thread (no locking on the hot path); a span keeps its
   name, layer, start and end, the span that was open when it began, and
   the operation it belongs to.  Recording is off unless the recorder's
   [on] is set; [with_] is then a plain call.  The recorders are written out
   once, at the end of a traced run, as Chrome/Perfetto trace events
   built with [Obs.Json]. *)

type span = {
  name : string;
  layer : string;
  start : float;  (** seconds, monotonic clock *)
  mutable stop : float;
  parent : int;  (** index in the same recorder, or -1 *)
  op : int;  (** operation id, or -1 outside any operation *)
}

type recorder = {
  tid : int;
  mutable on : bool;  (** recording; off, [with_] is a plain call *)
  mutable spans : span array;
  mutable n : int;
  mutable current : int;
  mutable op : int;
}

let dummy = { name = ""; layer = ""; start = 0.0; stop = 0.0; parent = -1; op = -1 }

let recorder ~tid =
  { tid; on = false; spans = Array.make 4096 dummy; n = 0; current = -1; op = -1 }

let push r s =
  if r.n = Array.length r.spans then begin
    let bigger = Array.make (2 * r.n) dummy in
    Array.blit r.spans 0 bigger 0 r.n;
    r.spans <- bigger
  end;
  r.spans.(r.n) <- s;
  r.n <- r.n + 1

let with_ r ~layer name f =
  if not r.on then f ()
  else begin
    let idx = r.n in
    let s =
      { name; layer; start = Util.now (); stop = nan; parent = r.current; op = r.op }
    in
    push r s;
    let parent = r.current in
    r.current <- idx;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Util.now ();
        r.current <- parent)
      f
  end

(* Tags every span opened until [end_op] with operation id [id]. *)
let begin_op r id = r.op <- id
let end_op r = r.op <- -1

let iter recorders f =
  List.iter (fun r -> for i = 0 to r.n - 1 do f r i r.spans.(i) done) recorders

let count recorders = List.fold_left (fun acc r -> acc + r.n) 0 recorders

(* Self time of every span: its duration minus what its children cover.
   Children of one span never overlap (one recorder is one thread). *)
let self_times r =
  let self = Array.init r.n (fun i -> r.spans.(i).stop -. r.spans.(i).start) in
  for i = 0 to r.n - 1 do
    let s = r.spans.(i) in
    if s.parent >= 0 then
      self.(s.parent) <- self.(s.parent) -. (s.stop -. s.start)
  done;
  self

(* Self seconds per layer, over the spans inside operations only. *)
let layer_self recorders =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let self = self_times r in
      for i = 0 to r.n - 1 do
        let s = r.spans.(i) in
        if s.op >= 0 then
          Hashtbl.replace tbl s.layer
            (self.(i) +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.layer))
      done)
    recorders;
  tbl

(* Chrome/Perfetto "complete" events, one per span, microsecond
   timestamps relative to the first span. *)
let chrome_json recorders =
  let t0 = ref infinity in
  iter recorders (fun _ _ s -> if s.start < !t0 then t0 := s.start);
  let us t = (t -. !t0) *. 1e6 in
  let events = ref [] in
  iter recorders (fun r i s ->
      events :=
        Obs.Json.Obj
          [
            ("name", Obs.Json.String s.name);
            ("cat", Obs.Json.String s.layer);
            ("ph", Obs.Json.String "X");
            ("ts", Obs.Json.Float (us s.start));
            ("dur", Obs.Json.Float ((s.stop -. s.start) *. 1e6));
            ("pid", Obs.Json.Int 1);
            ("tid", Obs.Json.Int r.tid);
            ( "args",
              Obs.Json.Obj
                [
                  ("id", Obs.Json.Int i);
                  ("parent", Obs.Json.Int s.parent);
                  ("op", Obs.Json.Int s.op);
                ] );
          ]
        :: !events);
  Obs.Json.Obj
    [
      ("traceEvents", Obs.Json.List (List.rev !events));
      ("displayTimeUnit", Obs.Json.String "ms");
    ]
