type addr_job = {
  a_txn : Ec.Txn.t;
  a_sel : int;
  a_slave : Ec.Slave.t;
  mutable a_wait : int;
}

type data_job = {
  d_txn : Ec.Txn.t;
  d_slave : Ec.Slave.t;
  d_sel : int;  (* slave select index, -1 for placeholder slots *)
  d_wait_states : int;  (* per beat *)
  mutable d_beat : int;
  mutable d_wait : int;
}

type t = {
  kernel : Sim.Kernel.t;
  decoder : Ec.Decoder.t;
  wires : Wires.t;
  diesel : Diesel.t;
  requests : Ec.Txn.t Ec.Ring.t;
  read_q : data_job Ec.Ring.t;
  write_q : data_job Ec.Ring.t;
  mutable addr_cur : addr_job option;
  mutable read_cur : data_job option;
  mutable write_cur : data_job option;
  iface : Iface.t;
}

let pop_opt q = Ec.Ring.pop_opt q

(* Drive the address-group wires with a transaction's attributes. *)
let drive_addr_wires t (txn : Ec.Txn.t) =
  let w = t.wires in
  Wires.set_addr w (txn.Ec.Txn.addr lsr 2);
  Wires.set_be w (Ec.Txn.byte_enables txn 0);
  Wires.set_ctrl w Ec.Signals.Avalid true;
  Wires.set_ctrl w Ec.Signals.Instr (txn.Ec.Txn.kind = Ec.Txn.Instruction);
  Wires.set_ctrl w Ec.Signals.Write (txn.Ec.Txn.dir = Ec.Txn.Write);
  Wires.set_ctrl w Ec.Signals.Burst (txn.Ec.Txn.burst > 1)

let dispatch t (job : addr_job) =
  let txn = job.a_txn and slave = job.a_slave in
  let cfg = slave.Ec.Slave.cfg in
  let make wait_states =
    { d_txn = txn; d_slave = slave; d_sel = job.a_sel;
      d_wait_states = wait_states; d_beat = 0; d_wait = wait_states }
  in
  match txn.Ec.Txn.dir with
  | Ec.Txn.Read -> Ec.Ring.push t.read_q (make cfg.Ec.Slave_cfg.read_wait)
  | Ec.Txn.Write -> Ec.Ring.push t.write_q (make cfg.Ec.Slave_cfg.write_wait)

(* Sink calls of the phases: top-level helpers taking [t], not closures,
   so a cycle allocates nothing. *)
let[@inline] stall t sel =
  match Iface.sink t.iface with
  | None -> ()
  | Some s -> Obs.Sink.wait_stall s ~slave:sel

let[@inline] beat_event t (job : data_job) =
  match Iface.sink t.iface with
  | None -> ()
  | Some s ->
    Obs.Sink.data_beat s ~cycle:(Sim.Kernel.now t.kernel)
      ~id:job.d_txn.Ec.Txn.id ~beat:job.d_beat ~slave:job.d_sel

(* The address phase of [job] completes: ARdy, the slave's select line,
   and the job moves on to its data engine. *)
let complete t job =
  Wires.set_ctrl t.wires Ec.Signals.Ardy true;
  Wires.set_sel t.wires (1 lsl job.a_sel);
  (match Iface.sink t.iface with
  | None -> ()
  | Some s ->
    Obs.Sink.txn_granted s ~cycle:(Sim.Kernel.now t.kernel)
      ~id:job.a_txn.Ec.Txn.id ~slave:job.a_sel);
  dispatch t job;
  t.addr_cur <- None

(* A free address channel takes the next queued request, if any. *)
let start_request t =
  match pop_opt t.requests with
  | None -> ()
  | Some txn -> begin
    let w = t.wires in
    drive_addr_wires t txn;
    match Ec.Decoder.check t.decoder txn with
    | Ec.Decoder.Unmapped | Ec.Decoder.Rights_violation _ ->
      (* Bus error: the controller terminates the transaction in its
         initiation cycle with the matching error strobe. *)
      Wires.set_ctrl w Ec.Signals.Ardy true;
      let err =
        match txn.Ec.Txn.dir with
        | Ec.Txn.Read -> Ec.Signals.Rberr
        | Ec.Txn.Write -> Ec.Signals.Wberr
      in
      Wires.set_ctrl w err true;
      Iface.finish t.iface txn Ec.Port.Failed
    | Ec.Decoder.Mapped (i, slave) ->
      let job =
        { a_txn = txn; a_sel = i; a_slave = slave;
          a_wait = slave.Ec.Slave.cfg.Ec.Slave_cfg.addr_wait }
      in
      (* The pop cycle is the first wait cycle, so an address phase
         occupies exactly addr_wait + 1 cycles. *)
      if job.a_wait = 0 then complete t job
      else begin
        job.a_wait <- job.a_wait - 1;
        t.addr_cur <- Some job
      end
  end

(* A phase in progress waits or completes this cycle; only a channel
   that was free at the cycle start takes a new request. *)
let addr_phase t =
  match t.addr_cur with
  | Some job ->
    if job.a_wait > 0 then begin
      job.a_wait <- job.a_wait - 1;
      stall t job.a_sel
    end
    else complete t job
  | None -> start_request t

let read_phase t =
  let w = t.wires in
  if t.read_cur = None then t.read_cur <- pop_opt t.read_q;
  match t.read_cur with
  | None -> ()
  | Some job ->
    if job.d_wait > 0 then begin
      job.d_wait <- job.d_wait - 1;
      stall t job.d_sel
    end
    else begin
      let txn = job.d_txn in
      let value = Ec.Slave.read_beat job.d_slave txn job.d_beat in
      Ec.Txn.set_beat txn job.d_beat value;
      Wires.set_rdata w value;
      Wires.set_ctrl w Ec.Signals.Rdval true;
      if txn.Ec.Txn.burst > 1 then begin
        if job.d_beat = 0 then Wires.set_ctrl w Ec.Signals.Bfirst true;
        if job.d_beat = txn.Ec.Txn.burst - 1 then
          Wires.set_ctrl w Ec.Signals.Blast true
      end;
      beat_event t job;
      job.d_beat <- job.d_beat + 1;
      if job.d_beat = txn.Ec.Txn.burst then begin
        Iface.finish t.iface txn Ec.Port.Done;
        t.read_cur <- None
      end
      else job.d_wait <- job.d_wait_states
    end

let write_phase t =
  let w = t.wires in
  if t.write_cur = None then begin
    t.write_cur <- pop_opt t.write_q;
    match t.write_cur with
    | Some job -> Wires.set_wdata w job.d_txn.Ec.Txn.data.(0)
    | None -> ()
  end;
  match t.write_cur with
  | None -> ()
  | Some job ->
    if job.d_wait > 0 then begin
      job.d_wait <- job.d_wait - 1;
      stall t job.d_sel
    end
    else begin
      let txn = job.d_txn in
      Wires.set_wdata w txn.Ec.Txn.data.(job.d_beat);
      Wires.set_ctrl w Ec.Signals.Wdrdy true;
      Ec.Slave.write_beat job.d_slave txn job.d_beat;
      if txn.Ec.Txn.burst > 1 then begin
        if job.d_beat = 0 then Wires.set_ctrl w Ec.Signals.Bfirst true;
        if job.d_beat = txn.Ec.Txn.burst - 1 then
          Wires.set_ctrl w Ec.Signals.Blast true
      end;
      beat_event t job;
      job.d_beat <- job.d_beat + 1;
      if job.d_beat = txn.Ec.Txn.burst then begin
        Iface.finish t.iface txn Ec.Port.Done;
        t.write_cur <- None
      end
      else begin
        job.d_wait <- job.d_wait_states;
        (* The master presents the next beat's data during its waits. *)
        Wires.set_wdata w txn.Ec.Txn.data.(job.d_beat)
      end
    end

(* The wires every cycle starts low: AValid is re-asserted while an
   address phase waits, the other strobes last one cycle. *)
let strobes_mask =
  List.fold_left
    (fun acc c -> acc lor (1 lsl Ec.Signals.ctrl_index c))
    0
    [ Ec.Signals.Avalid; Ec.Signals.Ardy; Ec.Signals.Rdval; Ec.Signals.Wdrdy;
      Ec.Signals.Rberr; Ec.Signals.Wberr; Ec.Signals.Bfirst; Ec.Signals.Blast ]

let cycle t _kernel =
  Wires.clear_ctrl t.wires strobes_mask;
  (match t.addr_cur with
  | Some _ -> Wires.set_ctrl t.wires Ec.Signals.Avalid true
  | None -> ());
  addr_phase t;
  read_phase t;
  write_phase t;
  Diesel.observe_and_commit t.diesel

(* Inert placeholders for the preallocated ring slots.  The interface's
   category limits cap each queue at 3 * 4 entries, so a capacity of 16
   means the rings never grow. *)
let dummy_txn = Ec.Txn.single_read ~id:(-1) 0

let dummy_job =
  { d_txn = dummy_txn; d_slave = Ec.Slave.placeholder; d_sel = -1;
    d_wait_states = 0; d_beat = 0; d_wait = 0 }

let create ~kernel ~decoder ?params ?record_profile () =
  let wires = Wires.create ~n_slaves:(max 1 (Ec.Decoder.count decoder)) in
  let diesel = Diesel.create ?params ?record_profile wires in
  let requests = Ec.Ring.create ~dummy:dummy_txn () in
  let enqueue txn =
    Ec.Ring.push requests txn;
    Ec.Ring.length requests
  in
  let t =
    {
      kernel;
      decoder;
      wires;
      diesel;
      requests;
      read_q = Ec.Ring.create ~dummy:dummy_job ();
      write_q = Ec.Ring.create ~dummy:dummy_job ();
      addr_cur = None;
      read_cur = None;
      write_cur = None;
      iface = Iface.create ~kernel ~enqueue;
    }
  in
  Sim.Kernel.on_falling kernel ~name:"rtl-bus" (cycle t);
  t

let iface t = t.iface
let wires t = t.wires
let diesel t = t.diesel

let reset t =
  Ec.Ring.clear t.requests;
  Ec.Ring.clear t.read_q;
  Ec.Ring.clear t.write_q;
  t.addr_cur <- None;
  t.read_cur <- None;
  t.write_cur <- None;
  Iface.reset t.iface;
  Wires.reset t.wires;
  Diesel.reset t.diesel
