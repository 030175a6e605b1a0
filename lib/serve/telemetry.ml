(* Daemon-wide telemetry plane (DESIGN.md section 16).

   Every request the daemon accepts gets a span: one mutable record
   carrying microsecond timestamps for each lifecycle edge
   (accept -> enqueue -> dequeue -> execute -> done) plus the queue
   depth and worker id observed at those edges.  Completed spans are
   folded into per-request-kind and per-client counters and fixed-bucket
   histograms (reusing [Obs.Metrics.hist], so recording allocates
   nothing beyond the span itself), and retained in a circular ring
   from which Chrome/Perfetto trace chunks are cut for subscribers.

   All registry state is guarded by one mutex; span field writes happen
   on whichever thread currently owns the request (reader, then the
   worker it was handed to via the job queue), so they need no lock of
   their own. *)

module J = Obs.Json

(* Request kinds.  Control requests (stats/metrics/subscribe/...) are
   answered inline on the reader thread and never visit the job queue;
   they appear as instants rather than worker slices in the trace. *)
let kind_run = 0
let kind_explore = 1
let kind_replay = 2
let kind_stats = 3
let kind_shutdown = 4
let kind_metrics = 5
let kind_subscribe = 6
let kind_unsubscribe = 7
let n_kinds = 8

let kind_name = function
  | 0 -> "run"
  | 1 -> "explore"
  | 2 -> "replay"
  | 3 -> "stats"
  | 4 -> "shutdown"
  | 5 -> "metrics"
  | 6 -> "subscribe"
  | 7 -> "unsubscribe"
  | k -> Printf.sprintf "kind-%d" k

type span = {
  sp_seq : int;
  sp_conn : int;
  sp_kind : int;
  sp_accept : int;  (* all timestamps: microseconds since registry epoch *)
  mutable sp_enqueue : int;
  mutable sp_dequeue : int;
  mutable sp_worker : int;
  mutable sp_execute : int;  (* execution finished, [done] not yet sent *)
  mutable sp_done : int;  (* terminator serialized and written *)
  mutable sp_ok : bool;
  mutable sp_frames : int;
}

type client = {
  mutable cl_requests : int;
  mutable cl_completed : int;
  mutable cl_failed : int;
  mutable cl_rejected : int;
  cl_queue_wait : Obs.Metrics.hist;
}

let us_bounds =
  [|
    50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.; 10_000.; 20_000.; 50_000.;
    100_000.; 200_000.; 500_000.; 1_000_000.; 5_000_000.;
  |]

let depth_bounds = [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64. |]

(* Per-client tracking is bounded: past this many distinct connection
   ids, further clients share one overflow bucket instead of growing the
   table without limit. *)
let max_clients = 512
let overflow_client = -1

type t = {
  mutex : Mutex.t;
  epoch : float;
  mutable next_seq : int;
  requests : int array;  (* accepted, per kind *)
  completed : int array;
  failed : int array;
  rejected : int array;
  latency : Obs.Metrics.hist array;  (* accept -> done, per kind *)
  queue_wait : Obs.Metrics.hist;  (* enqueue -> dequeue, queued jobs *)
  exec : Obs.Metrics.hist;  (* dequeue -> execute end *)
  serialize : Obs.Metrics.hist;  (* execute end -> done written *)
  enqueue_depth : Obs.Metrics.hist;  (* queue depth seen at enqueue *)
  clients : (int, client) Hashtbl.t;
  (* Circular rings feeding the trace stream.  [span_total] / [qd_total]
     are absolute counters so subscriber cursors can detect overwrites
     and report how many entries they missed. *)
  spans : span array;
  mutable span_total : int;
  qd_ts : int array;
  qd_depth : int array;
  mutable qd_total : int;
}

(* Ring capacities: completed spans and queue-depth samples. *)
let span_cap = 8192
let qd_cap = 16384

let create () =
  let dummy =
    {
      sp_seq = -1;
      sp_conn = -1;
      sp_kind = 0;
      sp_accept = 0;
      sp_enqueue = -1;
      sp_dequeue = -1;
      sp_worker = -1;
      sp_execute = -1;
      sp_done = -1;
      sp_ok = false;
      sp_frames = 0;
    }
  in
  {
    mutex = Mutex.create ();
    epoch = Unix.gettimeofday ();
    next_seq = 0;
    requests = Array.make n_kinds 0;
    completed = Array.make n_kinds 0;
    failed = Array.make n_kinds 0;
    rejected = Array.make n_kinds 0;
    latency =
      Array.init n_kinds (fun k ->
          Obs.Metrics.hist (kind_name k ^ "-latency-us") us_bounds);
    queue_wait = Obs.Metrics.hist "queue-wait-us" us_bounds;
    exec = Obs.Metrics.hist "execute-us" us_bounds;
    serialize = Obs.Metrics.hist "serialize-us" us_bounds;
    enqueue_depth = Obs.Metrics.hist "enqueue-depth" depth_bounds;
    clients = Hashtbl.create 16;
    spans = Array.make span_cap dummy;
    span_total = 0;
    qd_ts = Array.make qd_cap 0;
    qd_depth = Array.make qd_cap 0;
    qd_total = 0;
  }

let now_us t = int_of_float ((Unix.gettimeofday () -. t.epoch) *. 1e6)
let uptime_s t = Unix.gettimeofday () -. t.epoch

(* Callers hold [t.mutex]. *)
let client_entry t conn =
  let key =
    if Hashtbl.mem t.clients conn || Hashtbl.length t.clients < max_clients
    then conn
    else overflow_client
  in
  match Hashtbl.find_opt t.clients key with
  | Some c -> c
  | None ->
    let c =
      {
        cl_requests = 0;
        cl_completed = 0;
        cl_failed = 0;
        cl_rejected = 0;
        cl_queue_wait =
          Obs.Metrics.hist (Printf.sprintf "client%d-queue-wait-us" key)
            us_bounds;
      }
    in
    Hashtbl.add t.clients key c;
    c

(* Callers hold [t.mutex]. *)
let record_depth t ~ts ~depth =
  t.qd_ts.(t.qd_total mod qd_cap) <- ts;
  t.qd_depth.(t.qd_total mod qd_cap) <- depth;
  t.qd_total <- t.qd_total + 1

let span_accept t ~conn ~kind =
  let ts = now_us t in
  Mutex.lock t.mutex;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.requests.(kind) <- t.requests.(kind) + 1;
  let cl = client_entry t conn in
  cl.cl_requests <- cl.cl_requests + 1;
  Mutex.unlock t.mutex;
  {
    sp_seq = seq;
    sp_conn = conn;
    sp_kind = kind;
    sp_accept = ts;
    sp_enqueue = -1;
    sp_dequeue = -1;
    sp_worker = -1;
    sp_execute = -1;
    sp_done = -1;
    sp_ok = false;
    sp_frames = 0;
  }

let span_enqueued t span ~queue_depth =
  let ts = now_us t in
  span.sp_enqueue <- ts;
  Mutex.lock t.mutex;
  Obs.Metrics.observe_int t.enqueue_depth queue_depth;
  record_depth t ~ts ~depth:queue_depth;
  Mutex.unlock t.mutex

let span_rejected t span =
  Mutex.lock t.mutex;
  t.rejected.(span.sp_kind) <- t.rejected.(span.sp_kind) + 1;
  let cl = client_entry t span.sp_conn in
  cl.cl_rejected <- cl.cl_rejected + 1;
  Mutex.unlock t.mutex

let span_dequeued t span ~worker ~queue_depth =
  let ts = now_us t in
  span.sp_dequeue <- ts;
  span.sp_worker <- worker;
  Mutex.lock t.mutex;
  if span.sp_enqueue >= 0 then begin
    let wait = ts - span.sp_enqueue in
    Obs.Metrics.observe_int t.queue_wait wait;
    let cl = client_entry t span.sp_conn in
    Obs.Metrics.observe_int cl.cl_queue_wait wait
  end;
  record_depth t ~ts ~depth:queue_depth;
  Mutex.unlock t.mutex

let span_executed t span ~ok =
  span.sp_execute <- now_us t;
  span.sp_ok <- ok

let span_done t span ~frames =
  let ts = now_us t in
  span.sp_done <- ts;
  span.sp_frames <- frames;
  Mutex.lock t.mutex;
  t.completed.(span.sp_kind) <- t.completed.(span.sp_kind) + 1;
  if not span.sp_ok then t.failed.(span.sp_kind) <- t.failed.(span.sp_kind) + 1;
  let cl = client_entry t span.sp_conn in
  cl.cl_completed <- cl.cl_completed + 1;
  if not span.sp_ok then cl.cl_failed <- cl.cl_failed + 1;
  Obs.Metrics.observe_int t.latency.(span.sp_kind) (ts - span.sp_accept);
  if span.sp_dequeue >= 0 && span.sp_execute >= span.sp_dequeue then
    Obs.Metrics.observe_int t.exec (span.sp_execute - span.sp_dequeue);
  if span.sp_execute >= 0 then
    Obs.Metrics.observe_int t.serialize (ts - span.sp_execute);
  t.spans.(t.span_total mod span_cap) <- span;
  t.span_total <- t.span_total + 1;
  Mutex.unlock t.mutex

(* Control requests complete on the reader thread in one step. *)
let finish_control t span ~frames =
  span.sp_execute <- now_us t;
  span.sp_ok <- true;
  span_done t span ~frames

let spans_dropped t =
  Mutex.lock t.mutex;
  let d = max 0 (t.span_total - span_cap) in
  Mutex.unlock t.mutex;
  d

let spans_total t =
  Mutex.lock t.mutex;
  let n = t.span_total in
  Mutex.unlock t.mutex;
  n

let hist_json h = Obs.Metrics.hist_view_to_json (Obs.Metrics.hist_view h)

(* Callers hold [t.mutex]. *)
let used_kinds t =
  List.filter
    (fun k -> t.requests.(k) > 0)
    (List.init n_kinds Fun.id)

let snapshot t =
  Mutex.lock t.mutex;
  let kinds =
    List.map
      (fun k ->
        ( kind_name k,
          J.Obj
            [
              ("requests", J.Int t.requests.(k));
              ("completed", J.Int t.completed.(k));
              ("failed", J.Int t.failed.(k));
              ("rejected", J.Int t.rejected.(k));
              ("latency_us", hist_json t.latency.(k));
            ] ))
      (used_kinds t)
  in
  let clients =
    Hashtbl.fold (fun key cl acc -> (key, cl) :: acc) t.clients []
    |> List.sort compare
    |> List.map (fun (key, cl) ->
           ( (if key = overflow_client then "other" else string_of_int key),
             J.Obj
               [
                 ("requests", J.Int cl.cl_requests);
                 ("completed", J.Int cl.cl_completed);
                 ("failed", J.Int cl.cl_failed);
                 ("rejected", J.Int cl.cl_rejected);
                 ("queue_wait_us", hist_json cl.cl_queue_wait);
               ] ))
  in
  let doc =
    J.Obj
      [
        ("uptime_s", J.Float (uptime_s t));
        ("spans_total", J.Int t.span_total);
        ("spans_retained", J.Int (min t.span_total span_cap));
        ("spans_dropped", J.Int (max 0 (t.span_total - span_cap)));
        ( "queue",
          J.Obj
            [
              ("enqueue_depth", hist_json t.enqueue_depth);
              ("queue_wait_us", hist_json t.queue_wait);
              ("execute_us", hist_json t.exec);
              ("serialize_us", hist_json t.serialize);
            ] );
        ("requests", J.Obj kinds);
        ("clients", J.Obj clients);
      ]
  in
  Mutex.unlock t.mutex;
  doc

let render t =
  Mutex.lock t.mutex;
  let pctl h p =
    let v = Obs.Metrics.hist_view h in
    Obs.Metrics.percentile v p
  in
  let mean h =
    let v = Obs.Metrics.hist_view h in
    v.Obs.Metrics.mean
  in
  let us v = Printf.sprintf "%.0f" v in
  let request_rows =
    List.map
      (fun k ->
        [
          kind_name k;
          string_of_int t.requests.(k);
          string_of_int t.completed.(k);
          string_of_int t.failed.(k);
          string_of_int t.rejected.(k);
          us (mean t.latency.(k));
          us (pctl t.latency.(k) 50.0);
          us (pctl t.latency.(k) 99.0);
        ])
      (used_kinds t)
  in
  let phase_rows =
    List.map
      (fun h ->
        let v = Obs.Metrics.hist_view h in
        [
          v.Obs.Metrics.name;
          string_of_int v.Obs.Metrics.total;
          us v.Obs.Metrics.mean;
          us (Obs.Metrics.percentile v 50.0);
          us (Obs.Metrics.percentile v 99.0);
        ])
      [ t.queue_wait; t.exec; t.serialize; t.enqueue_depth ]
  in
  let client_rows =
    Hashtbl.fold (fun key cl acc -> (key, cl) :: acc) t.clients []
    |> List.sort compare
    |> List.map (fun (key, cl) ->
           [
             (if key = overflow_client then "other" else string_of_int key);
             string_of_int cl.cl_requests;
             string_of_int cl.cl_completed;
             string_of_int cl.cl_rejected;
             us (mean cl.cl_queue_wait);
             us (pctl cl.cl_queue_wait 99.0);
           ])
  in
  let spans_line =
    Printf.sprintf "spans: %d total, %d dropped from ring" t.span_total
      (max 0 (t.span_total - span_cap))
  in
  Mutex.unlock t.mutex;
  String.concat "\n"
    ([
       Core.Report.table
         ~header:
           [
             "request"; "accepted"; "completed"; "failed"; "rejected";
             "mean us"; "p50 us"; "p99 us";
           ]
         request_rows;
       "";
       Core.Report.table
         ~header:[ "phase"; "total"; "mean"; "p50"; "p99" ]
         phase_rows;
     ]
    @ (if client_rows = [] then []
       else
         [
           "";
           Core.Report.table
             ~header:
               [
                 "client"; "requests"; "completed"; "rejected";
                 "queue-wait mean us"; "queue-wait p99 us";
               ]
             client_rows;
         ])
    @ [ ""; spans_line ])

(* ---- Chrome/Perfetto export ------------------------------------- *)

(* Server lanes live alongside the simulator's tid layout (Obs.Chrome):
   150 = control-plane instants, 200+w = worker w's request slices;
   queue depth rides the shared counter track (tid 0). *)
let tid_control = 150
let tid_worker w = 200 + w

let span_events s =
  let name =
    Printf.sprintf "req %s%s" (kind_name s.sp_kind)
      (if s.sp_ok then "" else " (failed)")
  in
  let args =
    [
      ("seq", J.Int s.sp_seq);
      ("conn", J.Int s.sp_conn);
      ("ok", J.Bool s.sp_ok);
      ("frames", J.Int s.sp_frames);
    ]
    @
    if s.sp_enqueue >= 0 && s.sp_dequeue >= s.sp_enqueue then
      [ ("queue_wait_us", J.Int (s.sp_dequeue - s.sp_enqueue)) ]
    else []
  in
  if s.sp_worker >= 0 && s.sp_dequeue >= 0 && s.sp_done >= s.sp_dequeue then
    let tid = tid_worker s.sp_worker in
    [
      Obs.Chrome.ev ~name ~ph:"B" ~ts:s.sp_dequeue ~tid ~args ();
      Obs.Chrome.ev ~name ~ph:"E" ~ts:s.sp_done ~tid ();
    ]
  else
    [ Obs.Chrome.ev ~name ~ph:"i" ~ts:s.sp_accept ~tid:tid_control ~args () ]

let sort_by_ts events =
  List.stable_sort
    (fun a b ->
      match (J.member "ts" a, J.member "ts" b) with
      | Some (J.Int ta), Some (J.Int tb) -> compare ta tb
      | _ -> 0)
    events

let chrome_metadata ~workers () =
  Obs.Chrome.meta ~name:"process_name" ~tid:0 ~label:"smartcard-serve"
  :: Obs.Chrome.meta ~name:"thread_name" ~tid:tid_control ~label:"control"
  :: List.init workers (fun w ->
         Obs.Chrome.meta ~name:"thread_name" ~tid:(tid_worker w)
           ~label:(Printf.sprintf "worker%d" w))

type cursor = int * int  (* absolute (span, depth-sample) positions *)

let start_cursor : cursor = (0, 0)

(* Events recorded since [cursor], the advanced cursor, and how many
   ring entries were overwritten before this reader got to them. *)
let chrome_chunk t ((cs, cq) : cursor) =
  (* Only the ring *slices* are copied under the lock (completed spans
     are never mutated again, so sharing the records is safe); the JSON
     events — proportional to the request rate — are built outside it.
     Workers take this mutex on every span edge: serializing a busy
     tick's chunk under it would stall the request path. *)
  Mutex.lock t.mutex;
  let first_s = max cs (t.span_total - span_cap) in
  let first_q = max cq (t.qd_total - qd_cap) in
  let missed = first_s - cs + (first_q - cq) in
  let spans =
    Array.init (t.span_total - first_s) (fun i ->
        t.spans.((first_s + i) mod span_cap))
  in
  let qd =
    Array.init (t.qd_total - first_q) (fun i ->
        let j = (first_q + i) mod qd_cap in
        (t.qd_ts.(j), t.qd_depth.(j)))
  in
  let next : cursor = (t.span_total, t.qd_total) in
  Mutex.unlock t.mutex;
  let span_evs =
    List.concat (List.init (Array.length spans) (fun i -> span_events spans.(i)))
  in
  let depth_evs =
    List.init (Array.length qd) (fun i ->
        let ts, depth = qd.(i) in
        Obs.Chrome.counter ~name:"queue_depth" ~ts
          ~value:(float_of_int depth))
  in
  (sort_by_ts (span_evs @ depth_evs), next, missed)

let chrome_document t =
  let events, _, _ = chrome_chunk t start_cursor in
  Mutex.lock t.mutex;
  let first_s = max 0 (t.span_total - span_cap) in
  let max_worker =
    List.fold_left
      (fun acc i -> max acc t.spans.((first_s + i) mod span_cap).sp_worker)
      (-1)
      (List.init (t.span_total - first_s) Fun.id)
  in
  let total = t.span_total in
  let dropped = max 0 (t.span_total - span_cap) in
  Mutex.unlock t.mutex;
  J.Obj
    [
      ( "traceEvents",
        J.List (chrome_metadata ~workers:(max_worker + 1) () @ events) );
      ("displayTimeUnit", J.String "ms");
      ( "otherData",
        J.Obj
          [
            ("spans_total", J.Int total);
            ("spans_dropped", J.Int dropped);
          ] );
    ]

let write_chrome ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      J.to_buffer buf (chrome_document t);
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)
