(* Track (tid) layout: 1 = levels/windows, 2 = rejected submissions,
   10 + cat*8 + lane = master category lanes, 100 + i = slave i. *)

let pid = 1
let tid_levels = 1
let tid_rejected = 2
let tid_master cat lane = 10 + (cat * 8) + lane
let tid_slave i = 100 + i

type span = {
  s_start : int;
  s_end : int;
  s_id : int;
  s_cat : int;
  s_slave : int;
  s_ok : bool;
  s_beats : int;
  s_latency : float;
}

(* Reconstruct issue->finish intervals per transaction id.  Only spans
   with both endpoints inside the ring are kept, so B/E stay balanced. *)
let txn_spans events =
  let open_txns : (int, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  (* id -> (issue cycle, cat, slave) *)
  let spans = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Txn_issued ->
        Hashtbl.replace open_txns e.Event.id (e.Event.cycle, e.Event.arg, -1)
      | Event.Txn_granted -> (
        match Hashtbl.find_opt open_txns e.Event.id with
        | Some (start, cat, _) ->
          Hashtbl.replace open_txns e.Event.id (start, cat, e.Event.arg)
        | None -> ())
      | Event.Txn_finished | Event.Txn_error -> (
        match Hashtbl.find_opt open_txns e.Event.id with
        | Some (start, cat, slave) ->
          Hashtbl.remove open_txns e.Event.id;
          spans :=
            {
              s_start = start;
              s_end = max start e.Event.cycle;
              s_id = e.Event.id;
              s_cat = cat;
              s_slave = slave;
              s_ok = e.Event.kind = Event.Txn_finished;
              s_beats = (if e.Event.kind = Event.Txn_finished then e.Event.arg else 0);
              s_latency = e.Event.value;
            }
            :: !spans
        | None -> ())
      | _ -> ())
    events;
  List.sort (fun a b -> compare (a.s_start, a.s_id) (b.s_start, b.s_id)) !spans

(* Greedy lane assignment: within one category, a lane is reusable once
   its previous span ended strictly before the new span starts, so each
   (category, lane) track carries non-overlapping spans in time order. *)
let assign_lanes spans =
  let lanes : (int, int array) Hashtbl.t = Hashtbl.create 4 in
  (* cat -> last end cycle per lane *)
  List.map
    (fun s ->
      let ends =
        match Hashtbl.find_opt lanes s.s_cat with
        | Some a -> a
        | None ->
          let a = Array.make 8 (-1) in
          Hashtbl.add lanes s.s_cat a;
          a
      in
      let lane = ref 0 in
      while !lane < Array.length ends - 1 && ends.(!lane) >= s.s_start do
        incr lane
      done;
      ends.(!lane) <- s.s_end;
      (s, !lane))
    spans

let ev ?(args = []) ~name ~ph ~ts ~tid () =
  Json.Obj
    ([
       ("name", Json.String name);
       ("cat", Json.String "sim");
       ("ph", Json.String ph);
       ("ts", Json.Int ts);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ if args = [] then [] else [ ("args", Json.Obj args) ])

let counter ~name ~ts ~value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "C");
      ("ts", Json.Int ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ (name, Json.Float value) ]);
    ]

let meta ~name ~tid ~label =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("ts", Json.Int 0);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String label) ]);
    ]

let profile_counters profile =
  let len = Power.Profile.length profile in
  if len = 0 then []
  else begin
    let stride = max 1 ((len + 2047) / 2048) in
    let rec loop lo acc =
      if lo >= len then List.rev acc
      else begin
        let hi = min len (lo + stride) in
        let v = Power.Profile.window_sum profile ~lo ~hi in
        loop hi (counter ~name:"pj_per_cycle" ~ts:lo ~value:v :: acc)
      end
    in
    loop 0 []
  end

let trace_json ?profile ?(slave_names = [||]) sink =
  let events = Sink.events sink in
  let slave_name i =
    if i >= 0 && i < Array.length slave_names then slave_names.(i)
    else Printf.sprintf "slave%d" i
  in
  let used_tids = Hashtbl.create 16 in
  let use tid label = if not (Hashtbl.mem used_tids tid) then Hashtbl.add used_tids tid label in
  use tid_levels "levels";
  (* Transaction spans on master lanes. *)
  let span_events =
    List.concat_map
      (fun (s, lane) ->
        let tid = tid_master s.s_cat lane in
        use tid (Printf.sprintf "%s#%d" (Event.category_name s.s_cat) lane);
        let args =
          [ ("id", Json.Int s.s_id); ("ok", Json.Bool s.s_ok) ]
          @ (if s.s_beats > 0 then [ ("beats", Json.Int s.s_beats) ] else [])
          @ (if s.s_latency >= 0.0 then
               [ ("latency_cycles", Json.Float s.s_latency) ]
             else [])
          @
          if s.s_slave >= 0 then [ ("slave", Json.String (slave_name s.s_slave)) ]
          else []
        in
        let name =
          Printf.sprintf "txn %s%s" (Event.category_name s.s_cat)
            (if s.s_ok then "" else " (error)")
        in
        [
          ev ~name ~ph:"B" ~ts:s.s_start ~tid ~args ();
          ev ~name ~ph:"E" ~ts:s.s_end ~tid ();
        ])
      (assign_lanes (txn_spans events))
  in
  (* Everything that maps 1:1 from the ring. *)
  let direct_events =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Data_beat ->
          let tid = tid_slave e.Event.arg2 in
          use tid (slave_name e.Event.arg2);
          Some
            (ev ~name:"beat" ~ph:"i" ~ts:e.Event.cycle ~tid
               ~args:[ ("txn", Json.Int e.Event.id); ("beat", Json.Int e.Event.arg) ]
               ())
        | Event.Txn_rejected ->
          use tid_rejected "rejected submissions";
          Some
            (ev ~name:"reject" ~ph:"i" ~ts:e.Event.cycle ~tid:tid_rejected
               ~args:
                 [
                   ("txn", Json.Int e.Event.id);
                   ("category", Json.String (Event.category_name e.Event.arg));
                 ]
               ())
        | Event.Window_open ->
          Some
            (ev
               ~name:(Printf.sprintf "window %s" (Event.level_name e.Event.arg))
               ~ph:"B" ~ts:e.Event.cycle ~tid:tid_levels
               ~args:
                 [
                   ("window", Json.Int e.Event.id);
                   ("level", Json.String (Event.level_name e.Event.arg));
                 ]
               ())
        | Event.Window_close ->
          Some
            (ev
               ~name:(Printf.sprintf "window %s" (Event.level_name e.Event.arg))
               ~ph:"E" ~ts:e.Event.cycle ~tid:tid_levels
               ~args:
                 [
                   ("window", Json.Int e.Event.id);
                   ("spliced_pj", Json.Float e.Event.value);
                   ("beats", Json.Int e.Event.arg2);
                 ]
               ())
        | Event.Level_switch ->
          Some
            (ev
               ~name:
                 (Printf.sprintf "switch %s->%s"
                    (Event.level_name e.Event.arg)
                    (Event.level_name e.Event.arg2))
               ~ph:"i" ~ts:e.Event.cycle ~tid:tid_levels
               ~args:[ ("window", Json.Int e.Event.id) ]
               ())
        | Event.Energy_sample ->
          Some (counter ~name:"bus_pj" ~ts:e.Event.cycle ~value:e.Event.value)
        | Event.Txn_issued | Event.Txn_granted | Event.Txn_finished
        | Event.Txn_error ->
          None)
      events
  in
  let energy_track = match profile with None -> [] | Some p -> profile_counters p in
  (* Balanced windows: a run cut short can leave the last window open. *)
  let opens, closes =
    List.fold_left
      (fun (o, c) (e : Event.t) ->
        match e.Event.kind with
        | Event.Window_open -> (o + 1, c)
        | Event.Window_close -> (o, c + 1)
        | _ -> (o, c))
      (0, 0) events
  in
  let close_dangling =
    if opens > closes then begin
      let last_ts =
        List.fold_left (fun m (e : Event.t) -> max m e.Event.cycle) 0 events
      in
      List.init (opens - closes) (fun _ ->
          ev ~name:"window (open at export)" ~ph:"E" ~ts:last_ts ~tid:tid_levels ())
    end
    else []
  in
  let timed =
    List.stable_sort
      (fun a b ->
        match (Json.member "ts" a, Json.member "ts" b) with
        | Some (Json.Int ta), Some (Json.Int tb) -> compare ta tb
        | _ -> 0)
      (span_events @ direct_events @ energy_track @ close_dangling)
  in
  let metadata =
    meta ~name:"process_name" ~tid:0 ~label:"smartcard-sim"
    :: (Hashtbl.fold (fun tid label acc -> (tid, label) :: acc) used_tids []
       |> List.sort compare
       |> List.map (fun (tid, label) -> meta ~name:"thread_name" ~tid ~label))
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ timed));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("cycles_per_us", Json.Int 1);
            ("events_recorded", Json.Int (Sink.length sink));
            ("events_dropped", Json.Int (Sink.dropped sink));
          ] );
    ]

let to_string sink = Json.to_string (trace_json sink)

let write ?profile ~slave_names ~path sink =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Json.to_buffer buf (trace_json ?profile ~slave_names sink);
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)
