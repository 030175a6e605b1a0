type stats = {
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  profile : Power.Profile.t option;
}

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

  (* The front-end ran on exactly the window's cycles, so the window's
     profile is the tail of the cumulative one. *)
  let window_profile cumulative ~cycles =
    Option.map
      (fun p ->
        let w = Power.Profile.create () in
        let n = Power.Profile.length p in
        for i = max 0 (n - cycles) to n - 1 do
          Power.Profile.push w (Power.Profile.get p i)
        done;
        w)
      cumulative

  let diff a b =
    let cycles = b.cycles - a.cycles in
    {
      cycles;
      txns = b.txns - a.txns;
      beats = b.beats - a.beats;
      errors = b.errors - a.errors;
      bus_pj = b.bus_pj -. a.bus_pj;
      component_pj = b.component_pj -. a.component_pj;
      profile = window_profile b.profile ~cycles;
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
          profile = d.profile;
        }
      in
      t.segs_rev <- seg :: t.segs_rev;
      t.window <- t.window + 1;
      t.win_len <- 0;
      t.on_close seg
    end

  (* The first window opens at cycle 0, before any front-end has
     counted anything, whenever its first transaction arrives. *)
  let open_window t level =
    let snap = if t.started then t.measure level else zero_stats in
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

  let admit t =
    t.total_txns <- t.total_txns + 1;
    t.win_len <- t.win_len + 1;
    Some t.cur_level

  let next_level t ~addr ~quiesced =
    let cycle =
      if t.needs_cycle && t.started then t.now () else 0
    in
    let want = t.decide_win ~txn_index:t.total_txns ~addr ~cycle in
    if not t.started then begin
      open_window t want;
      t.started <- true;
      admit t
    end
    else if
      t.win_len >= t.max_window
      || (t.win_len >= t.min_window && want <> t.cur_level)
    then begin
      (* A close waits for the front-end to drain: refuse until then. *)
      if quiesced then begin
        close_window t;
        open_window t want;
        admit t
      end
      else None
    end
    else admit t

  let finish t =
    close_window t;
    Splice.splice (List.rev t.segs_rev)
end
