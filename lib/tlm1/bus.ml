(* The four-queue, four-phase structure of the paper's Figure 3: requests
   enter the request queue; the address phase FSM consumes them and passes
   them to the read or write queue; the data phases complete beats and
   deliver finished transactions to the finish store, where the master's
   next interface call picks them up. *)

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
  finish : (int, Ec.Port.poll) Hashtbl.t;
  mutable addr_cur : addr_state option;
  mutable read_cur : data_state option;
  mutable write_cur : data_state option;
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
        finish_txn t txn Ec.Port.Failed
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
        finish_txn t txn Ec.Port.Done;
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
        finish_txn t txn Ec.Port.Done;
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
  let t =
    {
      kernel;
      sink;
      decoder;
      energy;
      request_q = Queue.create ();
      read_q = Queue.create ();
      write_q = Queue.create ();
      finish = Hashtbl.create 64;
      addr_cur = None;
      read_cur = None;
      write_cur = None;
      outstanding = Array.make 3 0;
      completed_txns = 0;
      completed_beats = 0;
      error_txns = 0;
    }
  in
  Sim.Kernel.on_falling kernel ~name:"tlm1-bus" (bus_process t);
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
      Queue.push txn t.request_q;
      (match t.sink with
      | None -> ()
      | Some s ->
        Obs.Sink.txn_issued s ~cycle:(Sim.Kernel.now t.kernel)
          ~id:txn.Ec.Txn.id ~cat:c ~queue_depth:(Queue.length t.request_q));
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
let busy t =
  t.addr_cur <> None || t.read_cur <> None || t.write_cur <> None
  || not (Queue.is_empty t.request_q)
  || not (Queue.is_empty t.read_q)
  || not (Queue.is_empty t.write_q)

let completed_txns t = t.completed_txns
let completed_beats t = t.completed_beats
let error_txns t = t.error_txns
let queue_depths t =
  (Queue.length t.request_q, Queue.length t.read_q, Queue.length t.write_q)

let reset t =
  Queue.clear t.request_q;
  Queue.clear t.read_q;
  Queue.clear t.write_q;
  Hashtbl.reset t.finish;
  t.addr_cur <- None;
  t.read_cur <- None;
  t.write_cur <- None;
  Array.fill t.outstanding 0 3 0;
  t.completed_txns <- 0;
  t.completed_beats <- 0;
  t.error_txns <- 0;
  with_energy t Energy.reset
