(* One shared transaction structure, as in the paper's Figure 4: the
   interface call snapshots the slave wait states into the job; the bus
   process then only decrements counters and finally invokes the slave's
   block interface. *)

type job = {
  txn : Ec.Txn.t;
  slave : Ec.Slave.t option;  (* [None] for a decode error *)
  sel : int;  (* slave select index, -1 for a decode error *)
  mutable addr_left : int;
  mutable data_left : int;
}

type t = {
  kernel : Sim.Kernel.t;
  sink : Obs.Sink.t option;
  decoder : Ec.Decoder.t;
  energy : Energy.t option;
  pending : job Queue.t;  (* awaiting or inside their address phase *)
  data_q : job Queue.t;  (* address phase finished, data phase pending *)
  finish : (int, Ec.Port.poll) Hashtbl.t;
  outstanding : int array;
  mutable completed_txns : int;
  mutable completed_beats : int;
  mutable error_txns : int;
}

let cat_index = function
  | Ec.Txn.Cat_instr_read -> 0
  | Ec.Txn.Cat_data_read -> 1
  | Ec.Txn.Cat_write -> 2

let max_outstanding = 4

let with_energy t f = match t.energy with Some e -> f e | None -> ()

let finish_txn t (txn : Ec.Txn.t) outcome =
  let c = cat_index (Ec.Txn.category txn) in
  t.outstanding.(c) <- t.outstanding.(c) - 1;
  Hashtbl.replace t.finish txn.Ec.Txn.id outcome;
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
  | Ec.Port.Pending -> assert false

let address_phase t =
  match Queue.peek_opt t.pending with
  | None -> ()
  | Some job ->
    if job.addr_left > 0 then begin
      job.addr_left <- job.addr_left - 1;
      match t.sink with
      | None -> ()
      | Some s -> Obs.Sink.wait_stall s ~slave:job.sel
    end
    else begin
      ignore (Queue.pop t.pending);
      with_energy t (fun e -> ignore (Energy.address_phase_pj e job.txn));
      (match t.sink with
      | None -> ()
      | Some s ->
        Obs.Sink.txn_granted s ~cycle:(Sim.Kernel.now t.kernel)
          ~id:job.txn.Ec.Txn.id ~slave:job.sel);
      Queue.push job t.data_q
    end

let data_phase t =
  match Queue.peek_opt t.data_q with
  | None -> ()
  | Some job ->
    if job.data_left > 0 then begin
      job.data_left <- job.data_left - 1;
      match t.sink with
      | None -> ()
      | Some s -> Obs.Sink.wait_stall s ~slave:job.sel
    end
    else begin
      ignore (Queue.pop t.data_q);
      match job.slave with
      | None -> finish_txn t job.txn Ec.Port.Failed
      | Some slave ->
        (* Pointer passing: the whole burst moves in one interface call. *)
        (match job.txn.Ec.Txn.dir with
        | Ec.Txn.Read -> Ec.Slave.read_block slave job.txn
        | Ec.Txn.Write -> Ec.Slave.write_block slave job.txn);
        with_energy t (fun e -> ignore (Energy.data_phase_pj e job.txn));
        (match t.sink with
        | None -> ()
        | Some s ->
          let cycle = Sim.Kernel.now t.kernel in
          for beat = 0 to job.txn.Ec.Txn.burst - 1 do
            Obs.Sink.data_beat s ~cycle ~id:job.txn.Ec.Txn.id ~beat
              ~slave:job.sel
          done);
        finish_txn t job.txn Ec.Port.Done
    end

let bus_process t _kernel =
  address_phase t;
  data_phase t;
  with_energy t Energy.end_cycle

let create ~kernel ~decoder ?energy ?sink () =
  let t =
    {
      kernel;
      sink;
      decoder;
      energy;
      pending = Queue.create ();
      data_q = Queue.create ();
      finish = Hashtbl.create 64;
      outstanding = Array.make 3 0;
      completed_txns = 0;
      completed_beats = 0;
      error_txns = 0;
    }
  in
  Sim.Kernel.on_falling kernel ~name:"tlm2-bus" (bus_process t);
  t

let port t =
  let try_submit txn =
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
      (* The wait states of the addressed slave are read when the
         transaction is created, during this first interface call. *)
      let job =
        match Ec.Decoder.check t.decoder txn with
        | Ec.Decoder.Mapped (i, slave) ->
          let cfg = slave.Ec.Slave.cfg in
          {
            txn;
            slave = Some slave;
            sel = i;
            addr_left = cfg.Ec.Slave_cfg.addr_wait;
            data_left = Ec.Timing.data_phase_extra cfg txn;
          }
        | Ec.Decoder.Unmapped | Ec.Decoder.Rights_violation _ ->
          { txn; slave = None; sel = -1; addr_left = 0; data_left = 0 }
      in
      Queue.push job t.pending;
      (match t.sink with
      | None -> ()
      | Some s ->
        Obs.Sink.txn_issued s ~cycle:(Sim.Kernel.now t.kernel)
          ~id:txn.Ec.Txn.id ~cat:c ~queue_depth:(Queue.length t.pending));
      true
    end
  in
  let poll id =
    match Hashtbl.find_opt t.finish id with
    | None -> Ec.Port.Pending
    | Some outcome -> outcome
  in
  let retire id = Hashtbl.remove t.finish id in
  { Ec.Port.try_submit; poll; retire }

let energy t = t.energy
let busy t = not (Queue.is_empty t.pending && Queue.is_empty t.data_q)

let completed_txns t = t.completed_txns
let completed_beats t = t.completed_beats
let error_txns t = t.error_txns
let reset t =
  Queue.clear t.pending;
  Queue.clear t.data_q;
  Hashtbl.reset t.finish;
  Array.fill t.outstanding 0 3 0;
  t.completed_txns <- 0;
  t.completed_beats <- 0;
  t.error_txns <- 0;
  with_energy t Energy.reset
