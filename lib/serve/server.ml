(* The daemon's moving parts and their threads:

     - one accept thread per listener (polls with a short select timeout
       so drain never races a blocking accept; listener fds are created
       at startup so their numbers sit far below FD_SETSIZE, no matter
       how many connections are live);
     - one reader thread per connection: framing (through the
       connection's one buffered [Framing.reader]), validation, enqueue,
       error frames — and the accepted/busy/draining backpressure
       answers.  Readers block in [Framing.read] under a SO_RCVTIMEO
       receive timeout and re-check the stop conditions on each expiry,
       so they need no select (no FD_SETSIZE cap) and stay cancellable
       even against a peer stalled in the middle of a frame;
     - [domains] workers, each on a domain of its own: pop, execute
       via [Scheduler], stream frames, append the [done] summary.  The
       [serve] caller runs no job, so the threads above share the
       daemon's domain (and its runtime lock) with I/O only;
     - one watcher thread on a self-pipe, so a signal handler only has
       to write one byte to trigger the drain.

   Writes to one connection are serialized by a per-connection mutex
   (the reader's [accepted] frame must land before the worker's first
   result frame, and two workers may serve one connection's requests
   concurrently).  Connection file descriptors are closed exactly once
   ([closed] under the write mutex): by the reader when it exits with
   no job in flight, by the last finishing job otherwise, and in the
   final cleanup for whatever survives until shutdown.  A reader that
   exits outside of shutdown also unregisters its connection, so a
   long-running daemon does not accumulate dead entries. *)

type conn = {
  conn_id : int;  (* client identity for fairness and telemetry *)
  fd : Unix.file_descr;
  write_mutex : Mutex.t;
  mutable alive : bool;  (* writes allowed *)
  mutable closed : bool;  (* fd closed; never reset *)
  mutable eof : bool;  (* no more requests; close once pending hits 0 *)
  pending : int Atomic.t;  (* accepted jobs not yet completed *)
}

type job = {
  job_id : Obs.Json.t;
  job_conn : conn;
  request : Protocol.request;
  enqueued_at : float;
  span : Telemetry.span;
}

(* One live telemetry subscription (DESIGN.md section 16).  Owned by the
   subscriptions list under [subs_mutex]; mutable cursors are only
   touched by the ticker thread. *)
type sub = {
  sub_conn : conn;
  sub_rid : Obs.Json.t;  (* subscribe request id, tags stream frames *)
  sub_streams : Protocol.stream list;
  sub_interval : float;  (* seconds *)
  mutable sub_due : float;
  mutable sub_metrics_seq : int;
  mutable sub_trace_seq : int;
  mutable sub_cursor : Telemetry.cursor;
  mutable sub_meta_sent : bool;
}

(* The test latch: the [n]th job a worker dequeues waits here until
   [n] jobs are admitted or the latch is released.  Tickets follow
   arrival order, so admitting one job lets the earliest-held one run. *)
module Latch = struct
  type t = {
    mutex : Mutex.t;
    changed : Condition.t;  (* an arrival, an admission or the release *)
    mutable arrived : int;
    mutable admitted : int;
    mutable released : bool;
  }

  let create () =
    {
      mutex = Mutex.create ();
      changed = Condition.create ();
      arrived = 0;
      admitted = 0;
      released = false;
    }

  let update l f =
    Mutex.lock l.mutex;
    f ();
    Condition.broadcast l.changed;
    Mutex.unlock l.mutex

  let admit l n = update l (fun () -> l.admitted <- l.admitted + n)
  let release l = update l (fun () -> l.released <- true)

  let await_arrivals l n =
    Mutex.lock l.mutex;
    while l.arrived < n do
      Condition.wait l.changed l.mutex
    done;
    Mutex.unlock l.mutex

  let pass l =
    Mutex.lock l.mutex;
    l.arrived <- l.arrived + 1;
    let ticket = l.arrived in
    Condition.broadcast l.changed;
    while not (l.released || l.admitted >= ticket) do
      Condition.wait l.changed l.mutex
    done;
    Mutex.unlock l.mutex
end

type t = {
  domains : int;
  latch : Latch.t option;
  queue_depth : int;
  max_frame : int;
  handle_signals : bool;
  unix_path : string option;
  queue : job Jobq.t;
  pool : Core.Pool.t;
  started_at : float;
  listeners : (Unix.file_descr * [ `Unix | `Tcp ]) list;
  bound_tcp_port : int option;
  conns_mutex : Mutex.t;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  stopped : bool Atomic.t;  (* cleanup began: readers exit *)
  accepted : int Atomic.t;
  rejected : int Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  jobs_per_worker : int array;
  signal_r : Unix.file_descr;
  signal_w : Unix.file_descr;
  mutable served : bool;
  telemetry : Telemetry.t;
  next_conn_id : int Atomic.t;
  subs_mutex : Mutex.t;
  mutable subs : sub list;
}

let poll_interval = 0.05

(* Ticker resolution for telemetry subscriptions: snapshots land within
   one tick of their due time, so the minimum subscription interval the
   protocol accepts (10 ms) is effectively rounded up to this. *)
let tick_interval = 0.02

let pool t = t.pool
let telemetry t = t.telemetry
let draining t = Jobq.draining t.queue
let tcp_port t = t.bound_tcp_port

let drain t = Jobq.drain t.queue

(* --- listeners --- *)

let bind_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  fd

let bind_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  (fd, bound)

let create ?unix_path ?tcp_port ~domains ?(queue_depth = 64)
    ?(max_frame = Framing.default_max_frame) ?(handle_signals = false) ?latch
    () =
  if domains < 1 then invalid_arg "Serve.Server.create: domains < 1";
  if queue_depth < 1 then invalid_arg "Serve.Server.create: queue_depth < 1";
  if unix_path = None && tcp_port = None then
    invalid_arg "Serve.Server.create: no listener (need unix_path or tcp_port)";
  (* A peer that disconnects mid-stream must surface as EPIPE on the
     write, not as a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let unix_listener = Option.map bind_unix unix_path in
  let tcp_listener =
    try Option.map bind_tcp tcp_port
    with e ->
      Option.iter Unix.close unix_listener;
      raise e
  in
  let listeners =
    (match unix_listener with Some fd -> [ (fd, `Unix) ] | None -> [])
    @ match tcp_listener with Some (fd, _) -> [ (fd, `Tcp) ] | None -> []
  in
  let signal_r, signal_w = Unix.pipe () in
  {
    domains;
    latch;
    queue_depth;
    max_frame;
    handle_signals;
    unix_path;
    queue = Jobq.create ~capacity:queue_depth;
    pool = Core.Pool.create ();
    started_at = Unix.gettimeofday ();
    listeners;
    bound_tcp_port = Option.map snd tcp_listener;
    conns_mutex = Mutex.create ();
    conns = [];
    readers = [];
    stopped = Atomic.make false;
    accepted = Atomic.make 0;
    rejected = Atomic.make 0;
    completed = Atomic.make 0;
    failed = Atomic.make 0;
    jobs_per_worker = Array.make domains 0;
    signal_r;
    signal_w;
    served = false;
    telemetry = Telemetry.create ();
    next_conn_id = Atomic.make 0;
    subs_mutex = Mutex.create ();
    subs = [];
  }

(* --- connection writes --- *)

let close_conn conn =
  Mutex.lock conn.write_mutex;
  if not conn.closed then begin
    conn.closed <- true;
    conn.alive <- false;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock conn.write_mutex

(* Wakes a reader blocked mid-frame without racing fd reuse: shutdown
   makes its pending read return EOF but keeps the descriptor number
   reserved until the one true close. *)
let shutdown_conn conn =
  Mutex.lock conn.write_mutex;
  if not conn.closed then
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Mutex.unlock conn.write_mutex

(* Best-effort frame write: a dead peer must not take a worker (or the
   job it is running) down with it. *)
let send_frame conn ~id frame =
  Mutex.lock conn.write_mutex;
  (if conn.alive then
     try Framing.write_json conn.fd (Protocol.frame_to_json ~id frame)
     with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false);
  Mutex.unlock conn.write_mutex

let job_finished conn =
  if Atomic.fetch_and_add conn.pending (-1) = 1 && conn.eof then
    close_conn conn

(* --- stats --- *)

let pool_snapshot pool =
  {
    Protocol.session_hits = Core.Pool.hits pool;
    session_builds = Core.Pool.builds pool;
    plan_hits = Core.Pool.memo_hits pool;
    plan_builds = Core.Pool.memo_builds pool;
  }

let stats_body t =
  {
    Protocol.queue_depth = Jobq.depth t.queue;
    queue_capacity = t.queue_depth;
    stats_draining = Jobq.draining t.queue;
    uptime_s = Unix.gettimeofday () -. t.started_at;
    accepted = Atomic.get t.accepted;
    rejected = Atomic.get t.rejected;
    completed = Atomic.get t.completed;
    failed = Atomic.get t.failed;
    spans_dropped = Telemetry.spans_dropped t.telemetry;
    workers =
      List.init (Array.length t.jobs_per_worker) (fun i ->
          { Protocol.worker = i; jobs = t.jobs_per_worker.(i) });
    pool = pool_snapshot t.pool;
    rendered = Core.Report.pool_stats t.pool;
  }

(* --- backpressure --- *)

(* The hint is deliberately coarse: long enough that a retry loop does
   not hammer a saturated queue, short enough that a freed slot is found
   promptly.  10 ms per queued job approximates the small-request
   service time; heavyweight jobs simply cost one extra round. *)
let retry_after_ms t = max 10 (10 * Jobq.depth t.queue)

let error_frame code message ?retry_after_ms () =
  Protocol.Error { Protocol.code; message; retry_after_ms }

(* --- telemetry subscriptions --- *)

(* One subscription per connection: re-subscribing replaces the old
   stream set and cadence instead of stacking a second stream. *)
let register_sub t sub =
  Mutex.lock t.subs_mutex;
  t.subs <- sub :: List.filter (fun s -> s.sub_conn != sub.sub_conn) t.subs;
  Mutex.unlock t.subs_mutex

let remove_subs t conn =
  Mutex.lock t.subs_mutex;
  t.subs <- List.filter (fun s -> s.sub_conn != conn) t.subs;
  Mutex.unlock t.subs_mutex

let subs_snapshot t =
  Mutex.lock t.subs_mutex;
  let s = t.subs in
  Mutex.unlock t.subs_mutex;
  s

(* Every energy-jsonl chunk a worker streams to its requester is also
   forwarded to energy subscribers, tagged with their subscribe id. *)
let broadcast_energy t frame =
  List.iter
    (fun sub ->
      if List.mem `Energy sub.sub_streams then
        send_frame sub.sub_conn ~id:sub.sub_rid frame)
    (subs_snapshot t)

let metrics_reply t ~seq =
  Protocol.Metrics_reply
    {
      Protocol.metrics_seq = seq;
      snapshot = Telemetry.snapshot t.telemetry;
      metrics_rendered = Telemetry.render t.telemetry;
    }

(* The ticker serves all subscriptions from one thread with blocking
   best-effort writes: a stalled subscriber can delay its peers'
   snapshots (documented backpressure rule, DESIGN.md section 16) but
   never a worker, and a dead one fails its write, loses [alive], and is
   dropped on the next tick. *)
let ticker_loop t =
  while not (Atomic.get t.stopped) do
    Thread.delay tick_interval;
    let now = Unix.gettimeofday () in
    List.iter
      (fun sub ->
        if not sub.sub_conn.alive then remove_subs t sub.sub_conn
        else if now >= sub.sub_due then begin
          sub.sub_due <- now +. sub.sub_interval;
          if List.mem `Metrics sub.sub_streams then begin
            let seq = sub.sub_metrics_seq in
            sub.sub_metrics_seq <- seq + 1;
            send_frame sub.sub_conn ~id:sub.sub_rid (metrics_reply t ~seq)
          end;
          if List.mem `Trace sub.sub_streams then begin
            let events, cursor, missed =
              Telemetry.chrome_chunk t.telemetry sub.sub_cursor
            in
            sub.sub_cursor <- cursor;
            let events =
              if sub.sub_meta_sent then events
              else begin
                sub.sub_meta_sent <- true;
                Telemetry.chrome_metadata ~workers:t.domains () @ events
              end
            in
            if events <> [] || missed > 0 then begin
              let seq = sub.sub_trace_seq in
              sub.sub_trace_seq <- seq + 1;
              send_frame sub.sub_conn ~id:sub.sub_rid
                (Protocol.Trace_chunk
                   {
                     Protocol.trace_seq = seq;
                     trace_events = events;
                     trace_missed = missed;
                   })
            end
          end
        end)
      (subs_snapshot t)
  done

(* --- reader threads --- *)

let kind_of_request = function
  | Protocol.Run _ -> Telemetry.kind_run
  | Protocol.Explore _ -> Telemetry.kind_explore
  | Protocol.Replay _ -> Telemetry.kind_replay
  | Protocol.Stats -> Telemetry.kind_stats
  | Protocol.Metrics -> Telemetry.kind_metrics
  | Protocol.Subscribe _ -> Telemetry.kind_subscribe
  | Protocol.Unsubscribe -> Telemetry.kind_unsubscribe
  | Protocol.Shutdown -> Telemetry.kind_shutdown

let control_done t ~frames =
  Protocol.Done
    {
      Protocol.frames;
      latency_ms = 0.0;
      done_worker = -1;
      done_pool = pool_snapshot t.pool;
    }

let handle_request t conn ~id request =
  let span =
    Telemetry.span_accept t.telemetry ~conn:conn.conn_id
      ~kind:(kind_of_request request)
  in
  match request with
  | Protocol.Shutdown ->
    (* Control path: the drain flag flips before the ack goes out, so a
       client that saw the ack may rely on the daemon refusing new work. *)
    drain t;
    Telemetry.finish_control t.telemetry span ~frames:1;
    send_frame conn ~id (control_done t ~frames:0)
  | Protocol.Stats ->
    (* Control path: served inline on the reader thread so a daemon
       whose queue is saturated (or draining) stays observable.  Like
       jobs, the span closes before the terminator ships. *)
    send_frame conn ~id (Protocol.Stats_reply (stats_body t));
    Telemetry.finish_control t.telemetry span ~frames:2;
    send_frame conn ~id (control_done t ~frames:1)
  | Protocol.Metrics ->
    send_frame conn ~id (metrics_reply t ~seq:0);
    Telemetry.finish_control t.telemetry span ~frames:2;
    send_frame conn ~id (control_done t ~frames:1)
  | Protocol.Subscribe s ->
    register_sub t
      {
        sub_conn = conn;
        sub_rid = id;
        sub_streams = s.Protocol.streams;
        sub_interval = float_of_int s.Protocol.interval_ms /. 1000.0;
        (* First snapshot lands on the next tick, not an interval out:
           a subscriber sees data immediately. *)
        sub_due = 0.0;
        sub_metrics_seq = 0;
        sub_trace_seq = 0;
        sub_cursor = Telemetry.start_cursor;
        sub_meta_sent = false;
      };
    (* The ack terminates the request; the stream itself is unsolicited
       frames tagged with this request's id, ended by [unsubscribe] or
       disconnect. *)
    Telemetry.finish_control t.telemetry span ~frames:1;
    send_frame conn ~id
      (Protocol.Subscribed
         {
           Protocol.sub_streams = s.Protocol.streams;
           sub_interval_ms = s.Protocol.interval_ms;
         })
  | Protocol.Unsubscribe ->
    remove_subs t conn;
    Telemetry.finish_control t.telemetry span ~frames:1;
    send_frame conn ~id (control_done t ~frames:0)
  | Protocol.Run _ | Protocol.Explore _ | Protocol.Replay _ ->
    let job =
      {
        job_id = id;
        job_conn = conn;
        request;
        enqueued_at = Unix.gettimeofday ();
        span;
      }
    in
    (* Holding the write mutex across push + accepted keeps the
       [accepted] frame ahead of any result frame a fast worker might
       produce; the queue lock nests inside the connection lock only
       here, and workers never take them in the reverse order. *)
    Mutex.lock conn.write_mutex;
    let pushed = Jobq.push t.queue ~client:conn.conn_id job in
    (match pushed with
    | Jobq.Enqueued depth ->
      Atomic.incr t.accepted;
      Atomic.incr conn.pending;
      Telemetry.span_enqueued t.telemetry span ~queue_depth:depth;
      if conn.alive then (
        try Framing.write_json conn.fd
              (Protocol.frame_to_json ~id (Protocol.Accepted depth))
        with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false)
    | Jobq.Full | Jobq.Draining -> ());
    Mutex.unlock conn.write_mutex;
    (match pushed with
    | Jobq.Enqueued _ -> ()
    | Jobq.Full ->
      Atomic.incr t.rejected;
      Telemetry.span_rejected t.telemetry span;
      send_frame conn ~id
        (error_frame Protocol.Busy "queue full"
           ~retry_after_ms:(retry_after_ms t) ())
    | Jobq.Draining ->
      Atomic.incr t.rejected;
      Telemetry.span_rejected t.telemetry span;
      send_frame conn ~id
        (error_frame Protocol.Draining "server is draining" ()))

let handle_payload t conn payload =
  match Obs.Json.of_string payload with
  | Error msg ->
    send_frame conn ~id:Obs.Json.Null
      (error_frame Protocol.Bad_json ("request is not JSON: " ^ msg) ())
  | Ok json -> (
    let id = Protocol.request_id json in
    match Protocol.request_of_json json with
    | Error (code, message) -> send_frame conn ~id (error_frame code message ())
    | Ok request -> handle_request t conn ~id request)

let reader_loop t conn =
  let stop () = Atomic.get t.stopped || not conn.alive in
  let frames = Framing.reader conn.fd in
  let rec loop () =
    if stop () then ()
    else
      match Framing.read ~max_frame:t.max_frame ~stop frames with
      | Framing.Frame payload ->
        (try handle_payload t conn payload
         with e ->
           (* Nothing reaching here may take the reader (and with it
              the connection) down: answer and stay in sync instead.
              [bad_request] rather than [failed] because nothing was
              enqueued — the error frame is the whole response. *)
           send_frame conn ~id:Obs.Json.Null
             (error_frame Protocol.Bad_request
                (Printf.sprintf "request handling failed: %s"
                   (Printexc.to_string e))
                ()));
        loop ()
      | Framing.Stopped -> ()
      | Framing.Closed -> ()
      | Framing.Truncated ->
        (* The stream cannot be resynchronized: answer, then close. *)
        send_frame conn ~id:Obs.Json.Null
          (error_frame Protocol.Bad_frame "truncated frame" ())
      | Framing.Oversized len ->
        if Framing.discard ~stop frames len then begin
          send_frame conn ~id:Obs.Json.Null
            (error_frame Protocol.Oversized
               (Printf.sprintf "frame of %d bytes exceeds limit %d" len
                  t.max_frame)
               ());
          loop ()
        end
        else
          send_frame conn ~id:Obs.Json.Null
            (error_frame Protocol.Bad_frame "truncated frame" ())
      | exception Unix.Unix_error _ -> ()
  in
  loop ();
  (* The connection takes no more requests.  Mark it so the last
     in-flight job closes the fd, close right away when nothing is
     pending (both close paths are idempotent), and outside of global
     shutdown unregister so dead connections do not pile up — during
     shutdown [serve] owns the lists and the final close. *)
  conn.eof <- true;
  (* A disconnecting subscriber must stop costing ticker writes. *)
  remove_subs t conn;
  if Atomic.get conn.pending = 0 then close_conn conn;
  if not (Atomic.get t.stopped) then begin
    let self = Thread.id (Thread.self ()) in
    Mutex.lock t.conns_mutex;
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    t.readers <- List.filter (fun th -> Thread.id th <> self) t.readers;
    Mutex.unlock t.conns_mutex
  end

(* --- accept threads --- *)

let accept_loop t (lfd, kind) =
  let rec loop () =
    if Jobq.draining t.queue then ()
    else
      match Unix.select [ lfd ] [] [] poll_interval with
      | [], _, _ -> loop ()
      | _ -> (
        match Unix.accept lfd with
        | fd, _ ->
          if kind = `Tcp then
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
          (* The receive timeout is the reader's heartbeat: every
             expiry re-checks the stop conditions inside
             [Framing.read], which is what lets readers skip select
             (and its FD_SETSIZE cap) entirely. *)
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO poll_interval
           with Unix.Unix_error _ -> ());
          let conn =
            {
              conn_id = Atomic.fetch_and_add t.next_conn_id 1;
              fd;
              write_mutex = Mutex.create ();
              alive = true;
              closed = false;
              eof = false;
              pending = Atomic.make 0;
            }
          in
          let reader = Thread.create (fun () -> reader_loop t conn) () in
          Mutex.lock t.conns_mutex;
          t.conns <- conn :: t.conns;
          t.readers <- reader :: t.readers;
          Mutex.unlock t.conns_mutex;
          loop ()
        | exception
            Unix.Unix_error
              ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED
                | Unix.EINTR ),
                _,
                _ ) ->
          loop ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
  in
  loop ()

(* --- workers --- *)

let run_job t ~worker job =
  t.jobs_per_worker.(worker) <- t.jobs_per_worker.(worker) + 1;
  let conn = job.job_conn in
  let frames = ref 0 in
  let send frame =
    incr frames;
    (match frame with
    | Protocol.Energy _ -> broadcast_energy t frame
    | _ -> ());
    send_frame conn ~id:job.job_id frame
  in
  (try
     Scheduler.execute ~pool:t.pool ~stats:(fun () -> stats_body t) ~send
       job.request;
     Atomic.incr t.completed;
     Telemetry.span_executed t.telemetry job.span ~ok:true
   with e ->
     Atomic.incr t.failed;
     Telemetry.span_executed t.telemetry job.span ~ok:false;
     send
       (error_frame Protocol.Failed
          (Printf.sprintf "job failed: %s" (Printexc.to_string e))
          ()));
  (* The span closes BEFORE the done frame ships: a client that has seen
     its [done] and immediately asks for a metrics snapshot must find
     the job accounted — the reconciliation the soak harness checks. *)
  Telemetry.span_done t.telemetry job.span ~frames:(!frames + 1);
  send_frame conn ~id:job.job_id
    (Protocol.Done
       {
         (* [accepted] counts toward the stream the client saw. *)
         Protocol.frames = !frames + 1;
         latency_ms = (Unix.gettimeofday () -. job.enqueued_at) *. 1000.0;
         done_worker = worker;
         done_pool = pool_snapshot t.pool;
       });
  job_finished conn

let worker_loop t worker =
  let rec loop () =
    match Jobq.pop t.queue with
    | None -> ()
    | Some job ->
      Telemetry.span_dequeued t.telemetry job.span ~worker
        ~queue_depth:(Jobq.depth t.queue);
      Option.iter Latch.pass t.latch;
      run_job t ~worker job;
      loop ()
  in
  loop ()

(* One domain per worker.  A spawn can fail (the runtime caps the number
   of domains): the queue then drains at once, the workers already
   running exit, and [serve] tears down as after any drain before it
   re-raises. *)
let spawn_workers t =
  let rec spawn w acc =
    if w = t.domains then (acc, None)
    else
      match Domain.spawn (fun () -> worker_loop t w) with
      | d -> spawn (w + 1) (d :: acc)
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        drain t;
        (acc, Some (e, bt))
  in
  spawn 0 []

(* --- signals --- *)

let install_signals t =
  let handle signum =
    (* One byte on the self-pipe; the watcher thread does the real work
       in a normal context. *)
    let previous =
      Sys.signal signum
        (Sys.Signal_handle
           (fun _ ->
             try ignore (Unix.write t.signal_w (Bytes.make 1 '!') 0 1)
             with Unix.Unix_error _ -> ()))
    in
    (signum, previous)
  in
  [ handle Sys.sigint; handle Sys.sigterm ]

let signal_watcher t =
  let buf = Bytes.create 1 in
  match Unix.read t.signal_r buf 0 1 with
  | _ -> drain t (* a signal byte, or EOF when cleanup closes the pipe *)
  | exception Unix.Unix_error _ -> ()

(* --- the daemon --- *)

let serve t =
  if t.served then invalid_arg "Serve.Server.serve: already served";
  t.served <- true;
  let restore = if t.handle_signals then install_signals t else [] in
  let workers, spawn_failure = spawn_workers t in
  let watcher = Thread.create signal_watcher t in
  let ticker = Thread.create ticker_loop t in
  let acceptors = List.map (fun l -> Thread.create (accept_loop t) l) t.listeners in
  (* This thread runs no job.  A worker returns once it has seen the
     queue drained and empty. *)
  List.iter Domain.join workers;
  (* Drained.  Tear down in dependency order: acceptors (no new
     connections), readers (no new requests), then the descriptors. *)
  Atomic.set t.stopped true;
  Thread.join ticker;
  Mutex.lock t.subs_mutex;
  t.subs <- [];
  Mutex.unlock t.subs_mutex;
  List.iter Thread.join acceptors;
  List.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  (match t.unix_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ());
  let conns, readers =
    Mutex.lock t.conns_mutex;
    let c = t.conns and r = t.readers in
    t.conns <- [];
    t.readers <- [];
    Mutex.unlock t.conns_mutex;
    (c, r)
  in
  (* Kick readers out of any in-progress read before joining them: the
     receive timeout alone would also get there, shutdown gets there
     now — and a reader parked on a half-sent frame from a stalled peer
     must not be able to park [serve] with it. *)
  List.iter shutdown_conn conns;
  List.iter Thread.join readers;
  List.iter close_conn conns;
  (try Unix.close t.signal_w with Unix.Unix_error _ -> ());
  Thread.join watcher;
  (try Unix.close t.signal_r with Unix.Unix_error _ -> ());
  List.iter (fun (signum, previous) -> Sys.set_signal signum previous) restore;
  Option.iter
    (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
    spawn_failure
