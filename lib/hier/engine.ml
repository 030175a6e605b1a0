module Live = struct
  type t = {
    policy : Policy.t;
    sink : Obs.Sink.t option;
    measure : Level.t -> Splice.seg;
    on_close : Splice.seg -> unit;
    max_window : int;
    mutable started : bool;
    mutable cur_level : Level.t;
    mutable prev_level : Level.t option;
    mutable open_snap : Splice.seg;
    mutable win_len : int;
    mutable total_txns : int;
    mutable window : int;
    mutable segs_rev : Splice.seg list;
    mutable decide_win : txn_index:int -> addr:int -> Level.t;
  }

  let zero =
    {
      Splice.level = Level.L1;
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

  let diff (a : Splice.seg) (b : Splice.seg) =
    let cycles = b.cycles - a.cycles in
    {
      Splice.level = b.level;
      cycles;
      txns = b.txns - a.txns;
      beats = b.beats - a.beats;
      errors = b.errors - a.errors;
      bus_pj = b.bus_pj -. a.bus_pj;
      component_pj = b.component_pj -. a.component_pj;
      profile = window_profile b.profile ~cycles;
    }

  let create ?sink ~on_close ~policy ~measure () =
    {
      policy;
      sink;
      measure;
      on_close;
      max_window = Option.value policy.Policy.max_window ~default:max_int;
      started = false;
      cur_level = Level.L1;
      prev_level = None;
      open_snap = zero;
      win_len = 0;
      total_txns = 0;
      window = 0;
      segs_rev = [];
      decide_win = Policy.compile_window policy ~pj_per_cycle:0.0;
    }

  let close_window t =
    if t.win_len > 0 then begin
      let now = t.measure t.cur_level in
      let seg = diff t.open_snap now in
      (match t.sink with
      | None -> ()
      | Some s ->
        Obs.Sink.window_close s ~cycle:now.cycles ~index:t.window
          ~level:(Level.to_code t.cur_level) ~beats:seg.beats ~pj:seg.bus_pj;
        Obs.Sink.energy_sample s ~cycle:now.cycles ~pj:seg.bus_pj);
      if seg.cycles > 0 then
        (* The window's power feeds the energy-rate trigger; recompile
           the window decision function it is baked into. *)
        t.decide_win <-
          Policy.compile_window t.policy
            ~pj_per_cycle:(seg.bus_pj /. float_of_int seg.cycles);
      t.segs_rev <- seg :: t.segs_rev;
      t.window <- t.window + 1;
      t.win_len <- 0;
      t.on_close seg
    end

  (* The first window opens at cycle 0, before any front-end has
     counted anything, whenever its first transaction arrives. *)
  let open_window t level =
    let snap = if t.started then t.measure level else zero in
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
    let want = t.decide_win ~txn_index:t.total_txns ~addr in
    if not t.started then begin
      open_window t want;
      t.started <- true;
      admit t
    end
    else if
      t.win_len >= t.max_window
      || (t.win_len >= t.policy.Policy.min_window && want <> t.cur_level)
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
