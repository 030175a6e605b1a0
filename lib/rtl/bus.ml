(* The four-queue, four-phase structure of the paper's Figure 3: requests
   enter the request queue; the address phase consumes them and passes
   them to the read or write queue; the data phases complete beats and
   deliver finished transactions to the finish store of the shared
   [Iface], where the master's next interface call picks them up.  Every
   phase drives the wires; the estimator closes the cycle. *)

type data_job = {
  d_txn : Ec.Txn.t;
  d_slave : Ec.Slave.t;
  d_sel : int;  (* slave select index *)
  d_wait_states : int;  (* per beat *)
  mutable d_beat : int;
  mutable d_wait : int;
}

(* What closes a cycle: the gate-level estimator, the layer-1 fold over
   the wires' toggle words, or nothing at all (layer 1 without
   estimation drives the wires but never commits them). *)
type estimator = Gate of Diesel.t | Transfer of (Wires.t -> unit) | Unestimated

type t = {
  kernel : Sim.Kernel.t;
  decoder : Ec.Decoder.t;
  wires : Wires.t;
  estimator : estimator;
  mutable tap : (Wires.t -> unit) option;
  requests : Ec.Txn.t Ec.Ring.t;
  read_q : data_job Ec.Ring.t;
  write_q : data_job Ec.Ring.t;
  (* The address channel serves one transaction at a time: [a_sel] is -1
     while it is free. *)
  mutable a_txn : Ec.Txn.t;
  mutable a_slave : Ec.Slave.t;
  mutable a_sel : int;
  mutable a_wait : int;
  (* The job of each data phase, [idle] while the phase has none. *)
  mutable read_cur : data_job;
  mutable write_cur : data_job;
  iface : Iface.t;
}

(* Inert placeholders: the free address channel's transaction, the
   preallocated ring slots and the data phases' [idle] job.  The
   interface's category limits cap each queue at 3 * 4 entries, so a
   capacity of 16 means the rings never grow. *)
let dummy_txn = Ec.Txn.single_read ~id:(-1) 0

let idle =
  { d_txn = dummy_txn; d_slave = Ec.Slave.placeholder; d_sel = -1;
    d_wait_states = 0; d_beat = 0; d_wait = 0 }

(* Drive the address-group wires with a transaction's attributes. *)
let drive_addr_wires t (txn : Ec.Txn.t) =
  let w = t.wires in
  Wires.set_addr w (txn.Ec.Txn.addr lsr 2);
  Wires.set_be w (Ec.Txn.byte_enables txn 0);
  Wires.set_ctrl w Ec.Signals.Avalid true;
  Wires.set_ctrl w Ec.Signals.Instr (txn.Ec.Txn.kind = Ec.Txn.Instruction);
  Wires.set_ctrl w Ec.Signals.Write (txn.Ec.Txn.dir = Ec.Txn.Write);
  Wires.set_ctrl w Ec.Signals.Burst (txn.Ec.Txn.burst > 1)

(* Sink calls of the phases: top-level helpers taking [t], not closures,
   so a cycle allocates nothing. *)
let[@inline] stall t sel =
  match Iface.sink t.iface with
  | None -> ()
  | Some s -> Obs.Sink.wait_stall s ~slave:sel

(* The address channel's transaction moves on to its data engine. *)
let data_job t wait_states =
  { d_txn = t.a_txn; d_slave = t.a_slave; d_sel = t.a_sel;
    d_wait_states = wait_states; d_beat = 0; d_wait = wait_states }

(* The address phase completes: ARdy, the slave's select line, and the
   transaction moves on to its data queue. *)
let complete t =
  Wires.set_ctrl t.wires Ec.Signals.Ardy true;
  Wires.set_sel t.wires (1 lsl t.a_sel);
  (match Iface.sink t.iface with
  | None -> ()
  | Some s ->
    Obs.Sink.txn_granted s ~cycle:(Sim.Kernel.now t.kernel)
      ~id:t.a_txn.Ec.Txn.id ~slave:t.a_sel);
  let cfg = t.a_slave.Ec.Slave.cfg in
  (match t.a_txn.Ec.Txn.dir with
  | Ec.Txn.Read -> Ec.Ring.push t.read_q (data_job t cfg.Ec.Slave_cfg.read_wait)
  | Ec.Txn.Write ->
    Ec.Ring.push t.write_q (data_job t cfg.Ec.Slave_cfg.write_wait));
  t.a_txn <- dummy_txn;
  t.a_slave <- Ec.Slave.placeholder;
  t.a_sel <- -1

(* A free address channel takes the next queued request, if any. *)
let start_request t =
  if not (Ec.Ring.is_empty t.requests) then begin
    let txn = Ec.Ring.pop t.requests in
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
      t.a_txn <- txn;
      t.a_slave <- slave;
      t.a_sel <- i;
      (* The pop cycle is the first wait cycle, so an address phase
         occupies exactly addr_wait + 1 cycles. *)
      let wait = slave.Ec.Slave.cfg.Ec.Slave_cfg.addr_wait in
      if wait = 0 then complete t else t.a_wait <- wait - 1
  end

(* A phase in progress waits or completes this cycle; only a channel
   that was free at the cycle start takes a new request. *)
let addr_phase t =
  if t.a_sel < 0 then start_request t
  else if t.a_wait > 0 then begin
    t.a_wait <- t.a_wait - 1;
    stall t t.a_sel
  end
  else complete t

(* The beat of [job] moved: the phase's strobe [c], BFirst/BLast on the
   first and last beat of a burst, the beat's event, then the next
   beat's wait; true when it was the last beat and the transaction
   finished. *)
let end_beat t job c =
  let w = t.wires and txn = job.d_txn in
  Wires.set_ctrl w c true;
  if txn.Ec.Txn.burst > 1 then begin
    if job.d_beat = 0 then Wires.set_ctrl w Ec.Signals.Bfirst true;
    if job.d_beat = txn.Ec.Txn.burst - 1 then
      Wires.set_ctrl w Ec.Signals.Blast true
  end;
  (match Iface.sink t.iface with
  | None -> ()
  | Some s ->
    Obs.Sink.data_beat s ~cycle:(Sim.Kernel.now t.kernel) ~id:txn.Ec.Txn.id
      ~beat:job.d_beat ~slave:job.d_sel);
  job.d_beat <- job.d_beat + 1;
  if job.d_beat = txn.Ec.Txn.burst then begin
    Iface.finish t.iface txn Ec.Port.Done;
    true
  end
  else begin
    job.d_wait <- job.d_wait_states;
    false
  end

(* The read phase: one beat per cycle on the read data bus. *)
let read_phase t =
  if t.read_cur == idle && not (Ec.Ring.is_empty t.read_q) then
    t.read_cur <- Ec.Ring.pop t.read_q;
  let job = t.read_cur in
  if job == idle then ()
  else if job.d_wait > 0 then begin
    job.d_wait <- job.d_wait - 1;
    stall t job.d_sel
  end
  else begin
    let txn = job.d_txn in
    let value = Ec.Slave.read_beat job.d_slave txn job.d_beat in
    Ec.Txn.set_beat txn job.d_beat value;
    Wires.set_rdata t.wires value;
    if end_beat t job Ec.Signals.Rdval then t.read_cur <- idle
  end

(* The write phase, symmetric to the read phase. *)
let write_phase t =
  let w = t.wires in
  if t.write_cur == idle && not (Ec.Ring.is_empty t.write_q) then begin
    let job = Ec.Ring.pop t.write_q in
    t.write_cur <- job;
    Wires.set_wdata w job.d_txn.Ec.Txn.data.(0)
  end;
  let job = t.write_cur in
  if job == idle then ()
  else if job.d_wait > 0 then begin
    job.d_wait <- job.d_wait - 1;
    stall t job.d_sel
  end
  else begin
    let txn = job.d_txn in
    Wires.set_wdata w txn.Ec.Txn.data.(job.d_beat);
    Ec.Slave.write_beat job.d_slave txn job.d_beat;
    if end_beat t job Ec.Signals.Wdrdy then t.write_cur <- idle
    else
      (* The master presents the next beat's data during its waits. *)
      Wires.set_wdata w txn.Ec.Txn.data.(job.d_beat)
  end

(* The wires every cycle starts low: AValid is re-asserted while an
   address phase waits, the other strobes last one cycle. *)
let strobes_mask =
  List.fold_left
    (fun acc c -> acc lor (1 lsl Ec.Signals.ctrl_index c))
    0
    [ Ec.Signals.Avalid; Ec.Signals.Ardy; Ec.Signals.Rdval; Ec.Signals.Wdrdy;
      Ec.Signals.Rberr; Ec.Signals.Wberr; Ec.Signals.Bfirst; Ec.Signals.Blast ]

(* "The bus process calls the energy calculation method after the write
   phase.  At this time, all new signal values have been updated." *)
let cycle t _kernel =
  Wires.clear_ctrl t.wires strobes_mask;
  if t.a_sel >= 0 then Wires.set_ctrl t.wires Ec.Signals.Avalid true;
  addr_phase t;
  read_phase t;
  write_phase t;
  (match t.tap with None -> () | Some f -> f t.wires);
  match t.estimator with
  | Gate d -> Diesel.observe_and_commit d
  | Transfer close -> close t.wires
  | Unestimated -> ()

let make ~kernel ~decoder ~name wires estimator =
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
      estimator;
      tap = None;
      requests;
      read_q = Ec.Ring.create ~dummy:idle ();
      write_q = Ec.Ring.create ~dummy:idle ();
      a_txn = dummy_txn;
      a_slave = Ec.Slave.placeholder;
      a_sel = -1;
      a_wait = 0;
      read_cur = idle;
      write_cur = idle;
      iface = Iface.create ~kernel ~enqueue;
    }
  in
  Sim.Kernel.on_falling kernel ~name (cycle t);
  t

let bus_wires decoder =
  Wires.create ~n_slaves:(max 1 (Ec.Decoder.count decoder))

let create ~kernel ~decoder ?params ?record_profile () =
  let wires = bus_wires decoder in
  make ~kernel ~decoder ~name:"rtl-bus" wires
    (Gate (Diesel.create ?params ?record_profile wires))

let layer1 ~kernel ~decoder close =
  make ~kernel ~decoder ~name:"tlm1-bus" (bus_wires decoder)
    (match close with Some f -> Transfer f | None -> Unestimated)

let iface t = t.iface
let wires t = t.wires
let set_tap t f = t.tap <- f

let diesel t =
  match t.estimator with
  | Gate d -> d
  | Transfer _ | Unestimated -> invalid_arg "Rtl.Bus.diesel: a layer-1 bus"

let queue_depths t =
  Ec.Ring.(length t.requests, length t.read_q, length t.write_q)

let reset t =
  Ec.Ring.clear t.requests;
  Ec.Ring.clear t.read_q;
  Ec.Ring.clear t.write_q;
  t.a_txn <- dummy_txn;
  t.a_slave <- Ec.Slave.placeholder;
  t.a_sel <- -1;
  t.a_wait <- 0;
  t.read_cur <- idle;
  t.write_cur <- idle;
  t.tap <- None;
  Iface.reset t.iface;
  Wires.reset t.wires;
  match t.estimator with
  | Gate d -> Diesel.reset d
  | Transfer _ | Unestimated -> ()
