(* The four-queue, four-phase structure of the paper's Figure 3: requests
   enter the request queue; the address phase FSM consumes them and passes
   them to the read or write queue; the data phases complete beats and
   deliver finished transactions to the finish store of the shared
   [Iface], where the master's next interface call picks them up. *)

type addr_state = {
  a_txn : Ec.Txn.t;
  a_slave : Ec.Slave.t;
  a_sel : int;  (* slave select index *)
  mutable a_wait : int;
}

type data_state = {
  d_txn : Ec.Txn.t;
  d_slave : Ec.Slave.t;
  d_sel : int;
  d_wait_states : int;
  mutable d_beat : int;
  mutable d_wait : int;
}

type t = {
  kernel : Sim.Kernel.t;
  decoder : Ec.Decoder.t;
  energy : Energy.t option;
  request_q : Ec.Txn.t Ec.Ring.t;
  read_q : data_state Ec.Ring.t;
  write_q : data_state Ec.Ring.t;
  mutable addr_cur : addr_state option;
  mutable read_cur : data_state option;
  mutable write_cur : data_state option;
  iface : Iface.t;
}

(* Estimator and sink calls of the phases.  Top-level helpers taking
   [t], not closures over the phase's locals, so a cycle allocates
   nothing. *)
let with_energy t f x = match t.energy with Some e -> f e x | None -> ()

let stall t sel =
  match Iface.sink t.iface with
  | None -> ()
  | Some s -> Obs.Sink.wait_stall s ~slave:sel

(* The address phase of [st] completes: ARdy, and the transaction moves
   on to its data queue. *)
let complete t (st : addr_state) =
  with_energy t Energy.strobe Ec.Signals.Ardy;
  (match Iface.sink t.iface with
  | None -> ()
  | Some s ->
    Obs.Sink.txn_granted s ~cycle:(Sim.Kernel.now t.kernel)
      ~id:st.a_txn.Ec.Txn.id ~slave:st.a_sel);
  let cfg = st.a_slave.Ec.Slave.cfg in
  let data_state wait_states =
    { d_txn = st.a_txn; d_slave = st.a_slave; d_sel = st.a_sel;
      d_wait_states = wait_states; d_beat = 0; d_wait = wait_states }
  in
  (match st.a_txn.Ec.Txn.dir with
  | Ec.Txn.Read -> Ec.Ring.push t.read_q (data_state cfg.Ec.Slave_cfg.read_wait)
  | Ec.Txn.Write ->
    Ec.Ring.push t.write_q (data_state cfg.Ec.Slave_cfg.write_wait));
  t.addr_cur <- None

(* A free address channel takes the next queued request, if any. *)
let start_request t =
  if not (Ec.Ring.is_empty t.request_q) then begin
    let txn = Ec.Ring.pop t.request_q in
    with_energy t Energy.drive_addr_phase txn;
    (* Phase 1, getSlaveState: the slave control interface provides the
       address range, wait states and access rights used here. *)
    match Ec.Decoder.check t.decoder txn with
    | Ec.Decoder.Unmapped | Ec.Decoder.Rights_violation _ ->
      with_energy t Energy.strobe Ec.Signals.Ardy;
      with_energy t Energy.strobe
        (match txn.Ec.Txn.dir with
        | Ec.Txn.Read -> Ec.Signals.Rberr
        | Ec.Txn.Write -> Ec.Signals.Wberr);
      Iface.finish t.iface txn Ec.Port.Failed
    | Ec.Decoder.Mapped (i, slave) ->
      let st =
        { a_txn = txn; a_slave = slave; a_sel = i;
          a_wait = slave.Ec.Slave.cfg.Ec.Slave_cfg.addr_wait }
      in
      (* The pop cycle counts as the first wait cycle (the address
         phase occupies addr_wait + 1 cycles in total). *)
      if st.a_wait = 0 then complete t st
      else begin
        st.a_wait <- st.a_wait - 1;
        t.addr_cur <- Some st
      end
  end

(* Phase 2 of the bus process: the address phase finite state machine.
   A phase in progress waits or completes this cycle; only a channel
   that was free at the cycle start takes a new request.  AValid mirrors
   the address channel: high from request pop through the completion
   cycle, low when the channel idles. *)
let address_phase t =
  match t.addr_cur with
  | Some st ->
    with_energy t Energy.set_avalid true;
    if st.a_wait > 0 then begin
      st.a_wait <- st.a_wait - 1;
      stall t st.a_sel
    end
    else complete t st
  | None ->
    with_energy t Energy.set_avalid false;
    start_request t

(* One data beat's strobes: the phase's own ([c]), and BFirst/BLast on
   the first and last beat of a burst. *)
let beat_strobes t st c =
  with_energy t Energy.strobe c;
  let burst = st.d_txn.Ec.Txn.burst in
  if burst > 1 && st.d_beat = 0 then
    with_energy t Energy.strobe Ec.Signals.Bfirst;
  if burst > 1 && st.d_beat = burst - 1 then
    with_energy t Energy.strobe Ec.Signals.Blast

(* The beat moved: its event, then the next beat's wait; true when it was
   the last beat and the transaction finished. *)
let end_beat t st =
  let txn = st.d_txn in
  (match Iface.sink t.iface with
  | None -> ()
  | Some s ->
    Obs.Sink.data_beat s ~cycle:(Sim.Kernel.now t.kernel) ~id:txn.Ec.Txn.id
      ~beat:st.d_beat ~slave:st.d_sel);
  st.d_beat <- st.d_beat + 1;
  if st.d_beat = txn.Ec.Txn.burst then begin
    Iface.finish t.iface txn Ec.Port.Done;
    true
  end
  else begin
    st.d_wait <- st.d_wait_states;
    false
  end

(* Phase 3: read phase.  One data item (beat) per cycle. *)
let read_phase t =
  (match t.read_cur with
  | None when not (Ec.Ring.is_empty t.read_q) ->
    t.read_cur <- Some (Ec.Ring.pop t.read_q)
  | _ -> ());
  match t.read_cur with
  | None -> ()
  | Some st when st.d_wait > 0 ->
    st.d_wait <- st.d_wait - 1;
    stall t st.d_sel
  | Some st ->
    let value = Ec.Slave.read_beat st.d_slave st.d_txn st.d_beat in
    Ec.Txn.set_beat st.d_txn st.d_beat value;
    with_energy t Energy.drive_rdata value;
    beat_strobes t st Ec.Signals.Rdval;
    if end_beat t st then t.read_cur <- None

(* Phase 4: write phase, symmetric to the read phase.  The master
   presents a beat's data from the cycle its phase starts or its
   predecessor completes. *)
let write_phase t =
  (match t.write_cur with
  | None when not (Ec.Ring.is_empty t.write_q) ->
    let st = Ec.Ring.pop t.write_q in
    t.write_cur <- Some st;
    with_energy t Energy.drive_wdata st.d_txn.Ec.Txn.data.(0)
  | _ -> ());
  match t.write_cur with
  | None -> ()
  | Some st when st.d_wait > 0 ->
    st.d_wait <- st.d_wait - 1;
    stall t st.d_sel
  | Some st ->
    let data = st.d_txn.Ec.Txn.data in
    with_energy t Energy.drive_wdata data.(st.d_beat);
    beat_strobes t st Ec.Signals.Wdrdy;
    Ec.Slave.write_beat st.d_slave st.d_txn st.d_beat;
    if end_beat t st then t.write_cur <- None
    else with_energy t Energy.drive_wdata data.(st.d_beat)

let bus_process t _kernel =
  address_phase t;
  read_phase t;
  write_phase t;
  (* "The bus process calls the energy calculation method after the write
     phase.  At this time, all new signal values have been updated." *)
  match t.energy with Some e -> Energy.end_cycle e | None -> ()

(* Inert placeholder for the preallocated ring slots; the interface's
   category limits keep each ring under its 16 default slots. *)
let dummy_state =
  { d_txn = Ec.Txn.single_read ~id:(-1) 0; d_slave = Ec.Slave.placeholder;
    d_sel = -1; d_wait_states = 0; d_beat = 0; d_wait = 0 }

let create ~kernel ~decoder ?energy () =
  let request_q = Ec.Ring.create ~dummy:dummy_state.d_txn () in
  let enqueue txn =
    Ec.Ring.push request_q txn;
    Ec.Ring.length request_q
  in
  let t =
    {
      kernel;
      decoder;
      energy;
      request_q;
      read_q = Ec.Ring.create ~dummy:dummy_state ();
      write_q = Ec.Ring.create ~dummy:dummy_state ();
      addr_cur = None;
      read_cur = None;
      write_cur = None;
      iface = Iface.create ~kernel ~enqueue;
    }
  in
  Sim.Kernel.on_falling kernel ~name:"tlm1-bus" (bus_process t);
  t

let iface t = t.iface
let energy t = t.energy

let queue_depths t =
  Ec.Ring.(length t.request_q, length t.read_q, length t.write_q)

let reset t =
  Ec.Ring.clear t.request_q;
  Ec.Ring.clear t.read_q;
  Ec.Ring.clear t.write_q;
  t.addr_cur <- None;
  t.read_cur <- None;
  t.write_cur <- None;
  Iface.reset t.iface;
  match t.energy with Some e -> Energy.reset e | None -> ()
