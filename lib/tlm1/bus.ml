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
  sink : Obs.Sink.t option;
  decoder : Ec.Decoder.t;
  energy : Energy.t option;
  request_q : Ec.Txn.t Queue.t;
  read_q : data_state Queue.t;
  write_q : data_state Queue.t;
  mutable addr_cur : addr_state option;
  mutable read_cur : data_state option;
  mutable write_cur : data_state option;
  iface : Iface.t;
}

let with_energy t f = match t.energy with Some e -> f e | None -> ()

(* Phase 2 of the bus process: the address phase finite state machine. *)
let address_phase t =
  let progressed = ref false in
  let complete (st : addr_state) =
    with_energy t (fun e -> Energy.strobe e Ec.Signals.Ardy);
    (match t.sink with
    | None -> ()
    | Some s ->
      Obs.Sink.txn_granted s ~cycle:(Sim.Kernel.now t.kernel)
        ~id:st.a_txn.Ec.Txn.id ~slave:st.a_sel);
    let cfg = st.a_slave.Ec.Slave.cfg in
    let txn = st.a_txn in
    let data_state wait_states =
      { d_txn = txn; d_slave = st.a_slave; d_sel = st.a_sel;
        d_wait_states = wait_states; d_beat = 0; d_wait = wait_states }
    in
    (match txn.Ec.Txn.dir with
    | Ec.Txn.Read -> Queue.push (data_state cfg.Ec.Slave_cfg.read_wait) t.read_q
    | Ec.Txn.Write ->
      Queue.push (data_state cfg.Ec.Slave_cfg.write_wait) t.write_q);
    t.addr_cur <- None;
    progressed := true
  in
  (* AValid mirrors the address channel: high from request pop through the
     completion cycle, low when the channel idles. *)
  with_energy t (fun e -> Energy.set_avalid e (t.addr_cur <> None));
  (match t.addr_cur with
  | Some st ->
    if st.a_wait > 0 then begin
      st.a_wait <- st.a_wait - 1;
      (match t.sink with
      | None -> ()
      | Some s -> Obs.Sink.wait_stall s ~slave:st.a_sel);
      progressed := true
    end
    else complete st
  | None -> ());
  if t.addr_cur = None && not !progressed then begin
    match Queue.take_opt t.request_q with
    | None -> ()
    | Some txn -> begin
      progressed := true;
      with_energy t (fun e -> Energy.drive_addr_phase e txn);
      (* Phase 1, getSlaveState: the slave control interface provides the
         address range, wait states and access rights used here. *)
      match Ec.Decoder.check t.decoder txn with
      | Ec.Decoder.Unmapped | Ec.Decoder.Rights_violation _ ->
        with_energy t (fun e ->
            Energy.strobe e Ec.Signals.Ardy;
            Energy.strobe e
              (match txn.Ec.Txn.dir with
              | Ec.Txn.Read -> Ec.Signals.Rberr
              | Ec.Txn.Write -> Ec.Signals.Wberr));
        Iface.finish t.iface txn Ec.Port.Failed
      | Ec.Decoder.Mapped (i, slave) ->
        let st =
          { a_txn = txn; a_slave = slave; a_sel = i;
            a_wait = slave.Ec.Slave.cfg.Ec.Slave_cfg.addr_wait }
        in
        (* The pop cycle counts as the first wait cycle (the address
           phase occupies addr_wait + 1 cycles in total). *)
        if st.a_wait = 0 then begin
          t.addr_cur <- Some st;
          complete st
        end
        else begin
          st.a_wait <- st.a_wait - 1;
          t.addr_cur <- Some st
        end
    end
  end

(* Phase 3: read phase.  One data item (beat) per cycle. *)
let read_phase t =
  if t.read_cur = None then t.read_cur <- Queue.take_opt t.read_q;
  match t.read_cur with
  | None -> ()
  | Some st ->
    if st.d_wait > 0 then begin
      st.d_wait <- st.d_wait - 1;
      match t.sink with
      | None -> ()
      | Some s -> Obs.Sink.wait_stall s ~slave:st.d_sel
    end
    else begin
      let txn = st.d_txn in
      let value = Ec.Slave.read_beat st.d_slave txn st.d_beat in
      Ec.Txn.set_beat txn st.d_beat value;
      with_energy t (fun e ->
          Energy.drive_rdata e value;
          Energy.strobe e Ec.Signals.Rdval;
          if txn.Ec.Txn.burst > 1 then begin
            if st.d_beat = 0 then Energy.strobe e Ec.Signals.Bfirst;
            if st.d_beat = txn.Ec.Txn.burst - 1 then
              Energy.strobe e Ec.Signals.Blast
          end);
      (match t.sink with
      | None -> ()
      | Some s ->
        Obs.Sink.data_beat s ~cycle:(Sim.Kernel.now t.kernel)
          ~id:txn.Ec.Txn.id ~beat:st.d_beat ~slave:st.d_sel);
      st.d_beat <- st.d_beat + 1;
      if st.d_beat = txn.Ec.Txn.burst then begin
        Iface.finish t.iface txn Ec.Port.Done;
        t.read_cur <- None
      end
      else st.d_wait <- st.d_wait_states
    end

(* Phase 4: write phase, symmetric to the read phase. *)
let write_phase t =
  if t.write_cur = None then begin
    t.write_cur <- Queue.take_opt t.write_q;
    match t.write_cur with
    | Some st ->
      with_energy t (fun e -> Energy.drive_wdata e st.d_txn.Ec.Txn.data.(0))
    | None -> ()
  end;
  match t.write_cur with
  | None -> ()
  | Some st ->
    if st.d_wait > 0 then begin
      st.d_wait <- st.d_wait - 1;
      match t.sink with
      | None -> ()
      | Some s -> Obs.Sink.wait_stall s ~slave:st.d_sel
    end
    else begin
      let txn = st.d_txn in
      with_energy t (fun e ->
          Energy.drive_wdata e txn.Ec.Txn.data.(st.d_beat);
          Energy.strobe e Ec.Signals.Wdrdy;
          if txn.Ec.Txn.burst > 1 then begin
            if st.d_beat = 0 then Energy.strobe e Ec.Signals.Bfirst;
            if st.d_beat = txn.Ec.Txn.burst - 1 then
              Energy.strobe e Ec.Signals.Blast
          end);
      Ec.Slave.write_beat st.d_slave txn st.d_beat;
      (match t.sink with
      | None -> ()
      | Some s ->
        Obs.Sink.data_beat s ~cycle:(Sim.Kernel.now t.kernel)
          ~id:txn.Ec.Txn.id ~beat:st.d_beat ~slave:st.d_sel);
      st.d_beat <- st.d_beat + 1;
      if st.d_beat = txn.Ec.Txn.burst then begin
        Iface.finish t.iface txn Ec.Port.Done;
        t.write_cur <- None
      end
      else begin
        st.d_wait <- st.d_wait_states;
        with_energy t (fun e ->
            Energy.drive_wdata e txn.Ec.Txn.data.(st.d_beat))
      end
    end

let bus_process t _kernel =
  address_phase t;
  read_phase t;
  write_phase t;
  (* "The bus process calls the energy calculation method after the write
     phase.  At this time, all new signal values have been updated." *)
  with_energy t Energy.end_cycle

let create ~kernel ~decoder ?energy ?sink () =
  let request_q = Queue.create () in
  let enqueue txn =
    Queue.push txn request_q;
    Queue.length request_q
  in
  let t =
    {
      kernel;
      sink;
      decoder;
      energy;
      request_q;
      read_q = Queue.create ();
      write_q = Queue.create ();
      addr_cur = None;
      read_cur = None;
      write_cur = None;
      iface = Iface.create ~kernel ~sink ~enqueue;
    }
  in
  Sim.Kernel.on_falling kernel ~name:"tlm1-bus" (bus_process t);
  t

let iface t = t.iface
let energy t = t.energy

let queue_depths t =
  (Queue.length t.request_q, Queue.length t.read_q, Queue.length t.write_q)

let reset t =
  Queue.clear t.request_q;
  Queue.clear t.read_q;
  Queue.clear t.write_q;
  t.addr_cur <- None;
  t.read_cur <- None;
  t.write_cur <- None;
  Iface.reset t.iface;
  with_energy t Energy.reset
