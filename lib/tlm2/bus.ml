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
  energy : Energy.t option;
  pending : job Ec.Ring.t;  (* awaiting or inside their address phase *)
  data_q : job Ec.Ring.t;  (* address phase finished, data phase pending *)
  iface : Iface.t;
}

let stall t job =
  match Iface.sink t.iface with
  | None -> ()
  | Some s -> Obs.Sink.wait_stall s ~slave:job.sel

let address_phase t =
  if not (Ec.Ring.is_empty t.pending) then begin
    let job = Ec.Ring.peek t.pending in
    if job.addr_left > 0 then begin
      job.addr_left <- job.addr_left - 1;
      stall t job
    end
    else begin
      ignore (Ec.Ring.pop t.pending);
      (match t.energy with
      | Some e -> ignore (Energy.address_phase_pj e job.txn)
      | None -> ());
      (match Iface.sink t.iface with
      | None -> ()
      | Some s ->
        Obs.Sink.txn_granted s ~cycle:(Sim.Kernel.now t.kernel)
          ~id:job.txn.Ec.Txn.id ~slave:job.sel);
      Ec.Ring.push t.data_q job
    end
  end

let data_phase t =
  if not (Ec.Ring.is_empty t.data_q) then begin
    let job = Ec.Ring.peek t.data_q in
    if job.data_left > 0 then begin
      job.data_left <- job.data_left - 1;
      stall t job
    end
    else begin
      ignore (Ec.Ring.pop t.data_q);
      match job.slave with
      | None -> Iface.finish t.iface job.txn Ec.Port.Failed
      | Some slave ->
        (* Pointer passing: the whole burst moves in one interface call. *)
        (match job.txn.Ec.Txn.dir with
        | Ec.Txn.Read -> Ec.Slave.read_block slave job.txn
        | Ec.Txn.Write -> Ec.Slave.write_block slave job.txn);
        (match t.energy with
        | Some e -> ignore (Energy.data_phase_pj e job.txn)
        | None -> ());
        (match Iface.sink t.iface with
        | None -> ()
        | Some s ->
          let cycle = Sim.Kernel.now t.kernel in
          for beat = 0 to job.txn.Ec.Txn.burst - 1 do
            Obs.Sink.data_beat s ~cycle ~id:job.txn.Ec.Txn.id ~beat
              ~slave:job.sel
          done);
        Iface.finish t.iface job.txn Ec.Port.Done
    end
  end

let bus_process t _kernel =
  address_phase t;
  data_phase t;
  match t.energy with Some e -> Energy.end_cycle e | None -> ()

(* The wait states of the addressed slave are read when the transaction
   is created, during the first interface call. *)
let job_of decoder txn =
  match Ec.Decoder.check decoder txn with
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

(* Inert placeholder for the preallocated ring slots. *)
let dummy_job =
  { txn = Ec.Txn.single_read ~id:(-1) 0; slave = None; sel = -1;
    addr_left = 0; data_left = 0 }

let create ~kernel ~decoder ?energy () =
  let pending = Ec.Ring.create ~dummy:dummy_job () in
  let enqueue txn =
    Ec.Ring.push pending (job_of decoder txn);
    Ec.Ring.length pending
  in
  let t =
    {
      kernel;
      energy;
      pending;
      data_q = Ec.Ring.create ~dummy:dummy_job ();
      iface = Iface.create ~kernel ~enqueue;
    }
  in
  Sim.Kernel.on_falling kernel ~name:"tlm2-bus" (bus_process t);
  t

let iface t = t.iface
let energy t = t.energy

let reset t =
  Ec.Ring.clear t.pending;
  Ec.Ring.clear t.data_q;
  Iface.reset t.iface;
  match t.energy with Some e -> Energy.reset e | None -> ()
