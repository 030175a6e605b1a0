type t = {
  kernel : Sim.Kernel.t;
  mutable sink : Obs.Sink.t option;  (* the run's, set by [set_sink] *)
  enqueue : Ec.Txn.t -> int;
  outstanding : int array;  (* per Txn.category *)
  finished : Ec.Port.poll Ec.Id_store.t;  (* by transaction id *)
  mutable completed_txns : int;
  mutable completed_beats : int;
  mutable error_txns : int;
  port : Ec.Port.t;
}

let cat_index = function
  | Ec.Txn.Cat_instr_read -> 0
  | Ec.Txn.Cat_data_read -> 1
  | Ec.Txn.Cat_write -> 2

let max_outstanding = 4

let try_submit t txn =
  let c = cat_index (Ec.Txn.category txn) in
  if t.outstanding.(c) >= max_outstanding then begin
    (match t.sink with
    | None -> ()
    | Some s ->
      Obs.Sink.txn_rejected s ~cycle:(Sim.Kernel.now t.kernel)
        ~id:txn.Ec.Txn.id ~cat:c);
    false
  end
  else begin
    t.outstanding.(c) <- t.outstanding.(c) + 1;
    let queue_depth = t.enqueue txn in
    (match t.sink with
    | None -> ()
    | Some s ->
      Obs.Sink.txn_issued s ~cycle:(Sim.Kernel.now t.kernel)
        ~id:txn.Ec.Txn.id ~cat:c ~queue_depth);
    true
  end

let create ~kernel ~enqueue =
  let outstanding = Array.make 3 0
  and finished = Ec.Id_store.create ~dummy:Ec.Port.Pending () in
  let rec t =
    {
      kernel;
      sink = None;
      enqueue;
      outstanding;
      finished;
      completed_txns = 0;
      completed_beats = 0;
      error_txns = 0;
      port =
        {
          Ec.Port.try_submit = (fun txn -> try_submit t txn);
          poll =
            (fun id ->
              Ec.Id_store.find_default finished id ~default:Ec.Port.Pending);
          retire = (fun id -> Ec.Id_store.remove finished id);
        };
    }
  in
  t

let port t = t.port
let sink t = t.sink
let set_sink t sink = t.sink <- sink

let finish t (txn : Ec.Txn.t) outcome =
  let c = cat_index (Ec.Txn.category txn) in
  t.outstanding.(c) <- t.outstanding.(c) - 1;
  Ec.Id_store.set t.finished txn.Ec.Txn.id outcome;
  match outcome with
  | Ec.Port.Done ->
    t.completed_txns <- t.completed_txns + 1;
    t.completed_beats <- t.completed_beats + txn.Ec.Txn.burst;
    (match t.sink with
    | None -> ()
    | Some s ->
      Obs.Sink.txn_finished s ~cycle:(Sim.Kernel.now t.kernel)
        ~id:txn.Ec.Txn.id ~beats:txn.Ec.Txn.burst)
  | Ec.Port.Failed ->
    t.error_txns <- t.error_txns + 1;
    (match t.sink with
    | None -> ()
    | Some s ->
      Obs.Sink.txn_error s ~cycle:(Sim.Kernel.now t.kernel) ~id:txn.Ec.Txn.id)
  | Ec.Port.Pending -> invalid_arg "Iface.finish: Pending is not an outcome"

let busy t = t.outstanding.(0) + t.outstanding.(1) + t.outstanding.(2) > 0
let completed_txns t = t.completed_txns
let completed_beats t = t.completed_beats
let error_txns t = t.error_txns

let reset t =
  t.sink <- None;
  Array.fill t.outstanding 0 3 0;
  Ec.Id_store.clear t.finished;
  t.completed_txns <- 0;
  t.completed_beats <- 0;
  t.error_txns <- 0
