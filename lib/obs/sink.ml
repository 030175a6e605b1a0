type t = {
  capacity : int;
  kinds : int array;
  cycles : int array;
  ids : int array;
  args : int array;
  args2 : int array;
  values : float array;
  mutable len : int;
  mutable dropped : int;
  issue_cycles : int Ec.Id_store.t;
  metrics : Metrics.t;
}

let create ?(capacity = 65536) () =
  let capacity = max 16 capacity in
  {
    capacity;
    kinds = Array.make capacity 0;
    cycles = Array.make capacity 0;
    ids = Array.make capacity 0;
    args = Array.make capacity 0;
    args2 = Array.make capacity 0;
    values = Array.make capacity 0.0;
    len = 0;
    dropped = 0;
    issue_cycles = Ec.Id_store.create ~dummy:0 ();
    metrics = Metrics.create ();
  }

let metrics t = t.metrics

let length t = t.len
let dropped t = t.dropped

(* Inlined so the float [value] stays unboxed at the call sites. *)
let[@inline] record t kind ~cycle ~id ~arg ~arg2 ~value =
  if t.len = t.capacity then begin
    t.dropped <- t.dropped + 1;
    Metrics.incr_dropped t.metrics
  end
  else begin
    let i = t.len in
    t.kinds.(i) <- Event.kind_code kind;
    t.cycles.(i) <- cycle;
    t.ids.(i) <- id;
    t.args.(i) <- arg;
    t.args2.(i) <- arg2;
    t.values.(i) <- value;
    t.len <- i + 1
  end

let event_at t i =
  {
    Event.kind = Event.kind_of_code t.kinds.(i);
    cycle = t.cycles.(i);
    id = t.ids.(i);
    arg = t.args.(i);
    arg2 = t.args2.(i);
    value = t.values.(i);
  }

let events t = List.init t.len (event_at t)

let txn_issued t ~cycle ~id ~cat ~queue_depth =
  Metrics.incr_issued t.metrics;
  Metrics.observe_occupancy t.metrics ~depth:queue_depth;
  Ec.Id_store.set t.issue_cycles id cycle;
  record t Event.Txn_issued ~cycle ~id ~arg:cat ~arg2:queue_depth ~value:0.0

let txn_rejected t ~cycle ~id ~cat =
  Metrics.incr_rejected t.metrics;
  record t Event.Txn_rejected ~cycle ~id ~arg:cat ~arg2:(-1) ~value:0.0

let txn_granted t ~cycle ~id ~slave =
  record t Event.Txn_granted ~cycle ~id ~arg:slave ~arg2:(-1) ~value:0.0

let data_beat t ~cycle ~id ~beat ~slave =
  Metrics.incr_beats t.metrics;
  record t Event.Data_beat ~cycle ~id ~arg:beat ~arg2:slave ~value:0.0

let finish_latency t ~cycle ~id =
  let issue = Ec.Id_store.find_default t.issue_cycles id ~default:(-1) in
  Ec.Id_store.remove t.issue_cycles id;
  if issue < 0 then -1
  else begin
    let latency = cycle - issue in
    Metrics.observe_latency t.metrics ~cycles:latency;
    latency
  end

let txn_finished t ~cycle ~id ~beats =
  Metrics.incr_finished t.metrics;
  let latency = finish_latency t ~cycle ~id in
  record t Event.Txn_finished ~cycle ~id ~arg:beats ~arg2:(-1)
    ~value:(float_of_int latency)

let txn_error t ~cycle ~id =
  Metrics.incr_errored t.metrics;
  let latency = finish_latency t ~cycle ~id in
  record t Event.Txn_error ~cycle ~id ~arg:(-1) ~arg2:(-1)
    ~value:(float_of_int latency)

let wait_stall t ~slave = Metrics.add_wait_stall t.metrics ~slave
let master_outstanding t ~depth = Metrics.observe_outstanding t.metrics ~depth

let window_open t ~cycle ~index ~level =
  record t Event.Window_open ~cycle ~id:index ~arg:level ~arg2:(-1) ~value:0.0

let window_close t ~cycle ~index ~level ~beats ~pj =
  if beats > 0 then
    Metrics.observe_pj_per_beat t.metrics (pj /. float_of_int beats);
  record t Event.Window_close ~cycle ~id:index ~arg:level ~arg2:beats ~value:pj

let level_switch t ~cycle ~index ~prev ~next =
  record t Event.Level_switch ~cycle ~id:index ~arg:prev ~arg2:next ~value:0.0

let energy_sample t ~cycle ~pj =
  record t Event.Energy_sample ~cycle ~id:(-1) ~arg:(-1) ~arg2:(-1) ~value:pj
