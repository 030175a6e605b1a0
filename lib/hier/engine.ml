type stats = {
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  profile : Power.Profile.t option;
}

type 'sys ops = {
  create : Level.t -> 'sys;
  init : 'sys -> unit;
  handoff : prev:'sys -> next:'sys -> unit;
  run_segment : 'sys -> Ec.Trace.t -> stats;
}

type 'sys result = {
  splice : Splice.t;
  last_system : 'sys option;
}

(* Exclusive end of the window starting at [i], given the level decided
   there.  Address-based decisions are re-evaluated per item (with the
   window-start cycle and rates, the only ones known before simulating);
   cycle- and rate-triggers change decisions only at window boundaries,
   which [max_window] forces often enough to matter. *)
let window_end policy level items i obs =
  let n = Array.length items in
  match (policy : Policy.t) with
  | Policy.Constant _ -> n
  | Policy.Script _ ->
    let j = ref (i + 1) in
    while !j < n && Policy.decide policy (obs !j) = level do
      incr j
    done;
    !j
  | Policy.Triggered { min_window; max_window; _ } ->
    let cap = match max_window with Some m -> min n (i + m) | None -> n in
    let j = ref (i + 1) in
    while
      !j < cap
      && (!j - i < min_window || Policy.decide policy (obs !j) = level)
    do
      incr j
    done;
    min cap (max !j (min n (i + min_window)))

let run ?sink ?retire ~ops ~policy trace =
  let items = Array.of_list trace in
  let n = Array.length items in
  let segs_rev = ref [] in
  let prev_sys = ref None in
  let prev_level = ref None in
  let window = ref 0 in
  let cycle = ref 0 in
  let txns_per_kcycle = ref 0.0 in
  let pj_per_cycle = ref 0.0 in
  let i = ref 0 in
  while !i < n do
    let obs j =
      {
        Policy.txn_index = j;
        addr = items.(j).Ec.Trace.txn.Ec.Txn.addr;
        cycle = !cycle;
        txns_per_kcycle = !txns_per_kcycle;
        pj_per_cycle = !pj_per_cycle;
      }
    in
    let level = Policy.decide policy (obs !i) in
    let stop = window_end policy level items !i obs in
    let seg_trace = Array.to_list (Array.sub items !i (stop - !i)) in
    (match sink with
    | None -> ()
    | Some s ->
      (* Every window runs on a fresh kernel from cycle 0; shift its
         events onto the spliced timeline.  Set the base first so the
         window bookkeeping below lands at the window start. *)
      Obs.Sink.set_base s !cycle;
      (match !prev_level with
      | Some prev when prev <> level ->
        Obs.Sink.level_switch s ~cycle:0 ~index:!window
          ~prev:(Level.to_code prev) ~next:(Level.to_code level)
      | Some _ | None -> ());
      Obs.Sink.window_open s ~cycle:0 ~index:!window
        ~level:(Level.to_code level));
    prev_level := Some level;
    let sys = ops.create level in
    (* Quiescence is structural: the previous segment ran until its
       trace drained and all outstanding bursts completed, so the
       architectural state handed off here is the whole state. *)
    (match !prev_sys with
    | None -> ops.init sys
    | Some prev ->
      ops.handoff ~prev ~next:sys;
      (* The previous window's state has been copied out; its system can
         go back to a session pool. *)
      (match retire with None -> () | Some r -> r prev));
    prev_sys := Some sys;
    let st = ops.run_segment sys seg_trace in
    cycle := !cycle + st.cycles;
    (match sink with
    | None -> ()
    | Some s ->
      Obs.Sink.set_base s 0;
      Obs.Sink.window_close s ~cycle:!cycle ~index:!window
        ~level:(Level.to_code level) ~beats:st.beats ~pj:st.bus_pj;
      Obs.Sink.energy_sample s ~cycle:!cycle ~pj:st.bus_pj);
    incr window;
    if st.cycles > 0 then begin
      txns_per_kcycle := float_of_int st.txns *. 1000.0 /. float_of_int st.cycles;
      pj_per_cycle := st.bus_pj /. float_of_int st.cycles
    end;
    segs_rev :=
      {
        Splice.level;
        cycles = st.cycles;
        txns = st.txns;
        beats = st.beats;
        errors = st.errors;
        bus_pj = st.bus_pj;
        component_pj = st.component_pj;
        profile = st.profile;
      }
      :: !segs_rev;
    i := stop
  done;
  { splice = Splice.splice (List.rev !segs_rev); last_system = !prev_sys }

module Live = struct
  type t = {
    policy : Policy.t;
    sink : Obs.Sink.t option;
    measure : Level.t -> stats;
    now : unit -> int;
    on_close : Splice.seg -> unit;
    min_window : int;
    max_window : int;
    mutable started : bool;
    mutable cur_level : Level.t;
    mutable prev_level : Level.t option;
    mutable open_snap : stats;
    mutable win_len : int;
    mutable total_txns : int;
    mutable window : int;
    mutable txns_per_kcycle : float;
    mutable pj_per_cycle : float;
    mutable segs_rev : Splice.seg list;
    needs_cycle : bool;
    mutable decide_win : txn_index:int -> addr:int -> cycle:int -> Level.t;
  }

  let zero_stats =
    {
      cycles = 0;
      txns = 0;
      beats = 0;
      errors = 0;
      bus_pj = 0.0;
      component_pj = 0.0;
      profile = None;
    }

  let diff a b =
    {
      cycles = b.cycles - a.cycles;
      txns = b.txns - a.txns;
      beats = b.beats - a.beats;
      errors = b.errors - a.errors;
      bus_pj = b.bus_pj -. a.bus_pj;
      component_pj = b.component_pj -. a.component_pj;
      profile = None;
    }

  let create ?sink ~now ~on_close ~policy ~measure () =
    let min_window, max_window =
      match (policy : Policy.t) with
      | Policy.Constant _ -> (max_int, max_int)
      | Policy.Script _ -> (1, max_int)
      | Policy.Triggered { min_window; max_window; _ } ->
        (min_window, Option.value max_window ~default:max_int)
    in
    {
      policy;
      sink;
      measure;
      now;
      on_close;
      min_window;
      max_window;
      started = false;
      cur_level = Level.L1;
      prev_level = None;
      open_snap = zero_stats;
      win_len = 0;
      total_txns = 0;
      window = 0;
      txns_per_kcycle = 0.0;
      pj_per_cycle = 0.0;
      segs_rev = [];
      needs_cycle = Policy.needs_cycle policy;
      decide_win =
        Policy.compile_window policy ~txns_per_kcycle:0.0 ~pj_per_cycle:0.0;
    }

  let close_window t =
    if t.win_len > 0 then begin
      let now = t.measure t.cur_level in
      let d = diff t.open_snap now in
      (match t.sink with
      | None -> ()
      | Some s ->
        Obs.Sink.window_close s ~cycle:now.cycles ~index:t.window
          ~level:(Level.to_code t.cur_level) ~beats:d.beats ~pj:d.bus_pj;
        Obs.Sink.energy_sample s ~cycle:now.cycles ~pj:d.bus_pj);
      if d.cycles > 0 then begin
        t.txns_per_kcycle <-
          float_of_int d.txns *. 1000.0 /. float_of_int d.cycles;
        t.pj_per_cycle <- d.bus_pj /. float_of_int d.cycles;
        (* Rates feed the rate triggers; recompile the window decision
           function they are baked into. *)
        t.decide_win <-
          Policy.compile_window t.policy ~txns_per_kcycle:t.txns_per_kcycle
            ~pj_per_cycle:t.pj_per_cycle
      end;
      let seg =
        {
          Splice.level = t.cur_level;
          cycles = d.cycles;
          txns = d.txns;
          beats = d.beats;
          errors = d.errors;
          bus_pj = d.bus_pj;
          component_pj = d.component_pj;
          profile = None;
        }
      in
      t.segs_rev <- seg :: t.segs_rev;
      t.window <- t.window + 1;
      t.win_len <- 0;
      t.on_close seg
    end

  let open_window t level =
    let snap = t.measure level in
    (match t.sink with
    | None -> ()
    | Some s ->
      (match t.prev_level with
      | Some prev when prev <> level ->
        Obs.Sink.level_switch s ~cycle:snap.cycles ~index:t.window
          ~prev:(Level.to_code prev) ~next:(Level.to_code level)
      | Some _ | None -> ());
      Obs.Sink.window_open s ~cycle:snap.cycles ~index:t.window
        ~level:(Level.to_code level));
    t.prev_level <- Some level;
    t.cur_level <- level;
    t.open_snap <- snap

  let next_level t ~addr =
    let cycle =
      if t.needs_cycle && t.started then t.now () else 0
    in
    let want = t.decide_win ~txn_index:t.total_txns ~addr ~cycle in
    if not t.started then begin
      t.started <- true;
      open_window t want
    end
    else if
      t.win_len >= t.max_window
      || (t.win_len >= t.min_window && want <> t.cur_level)
    then begin
      close_window t;
      open_window t want
    end;
    t.total_txns <- t.total_txns + 1;
    t.win_len <- t.win_len + 1;
    t.cur_level

  let finish t =
    close_window t;
    Splice.splice (List.rev t.segs_rev)
end
