(* The EC master interface ([Iface]) against a pure model.

   The model is a list of outstanding transactions under the 4+4+4
   category limit, a finish store of (id, outcome) pairs that answers
   each finished id until it is retired, the traffic counters and the
   issued/rejected/finished/error events in order.  A state machine of
   submit, poll, finish, retire and reset commands drives the real
   interface, its [enqueue] a stand-in bus that only holds what it was
   given, and compares every answer, [busy], the counters and the event
   log with the model's.  Commands are generated from the model, so every
   sequence is legal (finish only an outstanding id, retire only a
   finished one); a command that shrinking made illegal is skipped on
   both sides.

   The second property runs random zero-gap traces through the rtl,
   layer-1 and layer-2 buses and replays their event streams through the
   same limit: a submission is refused exactly when its category is
   full. *)

module Gen = QCheck.Gen

type cmd =
  | Submit of int * int  (* category index, burst length *)
  | Poll of int
  | Finish of int * bool  (* outstanding id, done (else a bus error) *)
  | Retire of int
  | Reset

let cat_name c = Obs.Event.category_name c

let show_cmd = function
  | Submit (c, b) -> Printf.sprintf "submit %s x%d" (cat_name c) b
  | Poll id -> Printf.sprintf "poll %d" id
  | Finish (id, ok) -> Printf.sprintf "finish %d %s" id (if ok then "done" else "error")
  | Retire id -> Printf.sprintf "retire %d" id
  | Reset -> "reset"

(* One expected event: kind, cycle, id, arg, arg2 ([Obs.Event]'s
   payload conventions). *)
type event = Obs.Event.kind * int * int * int * int

type model = {
  outstanding : (int * int * int) list;  (* id, category, burst; newest first *)
  finished : (int * Ec.Port.poll) list;
  next_id : int;
  cycle : int;
  txns : int;
  beats : int;
  errors : int;
  events : event list;  (* newest first *)
}

let empty =
  { outstanding = []; finished = []; next_id = 0; cycle = 0; txns = 0;
    beats = 0; errors = 0; events = [] }

let limit = 4

let in_cat m c = List.length (List.filter (fun (_, c', _) -> c' = c) m.outstanding)

let poll_answer m id =
  Option.value (List.assoc_opt id m.finished) ~default:Ec.Port.Pending

let legal m = function
  | Submit _ | Poll _ | Reset -> true
  | Finish (id, _) -> List.exists (fun (id', _, _) -> id' = id) m.outstanding
  | Retire id -> List.mem_assoc id m.finished

(* The model's next state; [Submit] takes the next fresh id.  Every
   command ends its cycle. *)
let step m cmd =
  let m =
    match cmd with
    | Submit (c, burst) ->
      let id = m.next_id in
      let m = { m with next_id = id + 1 } in
      if in_cat m c >= limit then
        { m with events = (Obs.Event.Txn_rejected, m.cycle, id, c, -1) :: m.events }
      else
        let outstanding = (id, c, burst) :: m.outstanding in
        let depth = List.length outstanding in
        { m with
          outstanding;
          events = (Obs.Event.Txn_issued, m.cycle, id, c, depth) :: m.events }
    | Poll _ -> m
    | Finish (id, ok) ->
      let _, _, burst = List.find (fun (id', _, _) -> id' = id) m.outstanding in
      let m =
        { m with
          outstanding = List.filter (fun (id', _, _) -> id' <> id) m.outstanding;
          finished = (id, if ok then Ec.Port.Done else Ec.Port.Failed) :: m.finished }
      in
      if ok then
        { m with
          txns = m.txns + 1;
          beats = m.beats + burst;
          events = (Obs.Event.Txn_finished, m.cycle, id, burst, -1) :: m.events }
      else
        { m with
          errors = m.errors + 1;
          events = (Obs.Event.Txn_error, m.cycle, id, -1, -1) :: m.events }
    | Retire id -> { m with finished = List.remove_assoc id m.finished }
    | Reset ->
      { m with outstanding = []; finished = []; txns = 0; beats = 0; errors = 0 }
  in
  { m with cycle = m.cycle + 1 }

let gen_cmd m =
  let open Gen in
  let submit =
    map2 (fun c b -> Submit (c, b)) (int_bound 2) (oneofl [ 1; 4 ])
  in
  let finish l =
    map2
      (fun (id, _, _) ok -> Finish (id, ok))
      (oneofl l)
      (frequencyl [ (3, true); (1, false) ])
  in
  frequency
    ([ (6, submit);
       (3, map (fun id -> Poll id) (int_bound m.next_id));
       (1, return Reset) ]
    @ (match m.outstanding with [] -> [] | l -> [ (6, finish l) ])
    @ (match m.finished with
      | [] -> []
      | l -> [ (3, map (fun (id, _) -> Retire id) (oneofl l)) ]))

let gen_cmds =
  let open Gen in
  let* n = int_range 1 120 in
  let rec go m n acc =
    if n = 0 then return (List.rev acc)
    else
      let* c = gen_cmd m in
      go (step m c) (n - 1) (c :: acc)
  in
  go empty n []

let arb_cmds =
  QCheck.make gen_cmds
    ~print:(fun cmds -> String.concat "; " (List.map show_cmd cmds))
    ~shrink:QCheck.Shrink.list

let txn_of ~id c burst =
  let kind, dir =
    match c with
    | 0 -> (Ec.Txn.Instruction, Ec.Txn.Read)
    | 1 -> (Ec.Txn.Data, Ec.Txn.Read)
    | _ -> (Ec.Txn.Data, Ec.Txn.Write)
  in
  let data = if dir = Ec.Txn.Write then Some (Array.make burst 0) else None in
  Ec.Txn.create ~id ~kind ~dir ~width:Ec.Txn.W32 ~addr:0 ~burst ?data ()

let iface_events sink =
  List.filter_map
    (fun (e : Obs.Event.t) ->
      match e.Obs.Event.kind with
      | Obs.Event.Txn_issued | Obs.Event.Txn_rejected | Obs.Event.Txn_finished
      | Obs.Event.Txn_error ->
        Some (e.Obs.Event.kind, e.Obs.Event.cycle, e.Obs.Event.id, e.Obs.Event.arg,
              e.Obs.Event.arg2)
      | _ -> None)
    (Obs.Sink.events sink)

let fail fmt = QCheck.Test.fail_reportf fmt

let prop_iface_model =
  QCheck.Test.make ~name:"iface = outstanding-limit model" ~count:200 arb_cmds
    (fun cmds ->
      let kernel = Sim.Kernel.create () in
      (* The stand-in bus: what the interface handed it, by id. *)
      let held = Hashtbl.create 16 in
      let iface =
        Iface.create ~kernel ~enqueue:(fun txn ->
            Hashtbl.replace held txn.Ec.Txn.id txn;
            Hashtbl.length held)
      in
      let port = Iface.port iface and sink = Obs.Sink.create () in
      Iface.set_sink iface (Some sink);
      let run m cmd =
        if not (legal m cmd) then m
        else begin
          (match cmd with
          | Submit (c, burst) ->
            let accepted = port.Ec.Port.try_submit (txn_of ~id:m.next_id c burst) in
            if accepted <> (in_cat m c < limit) then
              fail "%s: accepted %b with %d outstanding" (show_cmd cmd) accepted
                (in_cat m c)
          | Poll id ->
            if port.Ec.Port.poll id <> poll_answer m id then
              fail "%s: answer differs from the model's" (show_cmd cmd)
          | Finish (id, ok) ->
            let txn = Hashtbl.find held id in
            Hashtbl.remove held id;
            Iface.finish iface txn (if ok then Ec.Port.Done else Ec.Port.Failed)
          | Retire id -> port.Ec.Port.retire id
          | Reset ->
            Iface.reset iface;
            Hashtbl.reset held;
            if Option.is_some (Iface.sink iface) then fail "reset kept the sink";
            Iface.set_sink iface (Some sink));
          Sim.Kernel.step kernel;
          let m = step m cmd in
          if Iface.busy iface <> (m.outstanding <> []) then
            fail "%s: busy %b" (show_cmd cmd) (Iface.busy iface);
          if
            (Iface.completed_txns iface, Iface.completed_beats iface, Iface.error_txns iface)
            <> (m.txns, m.beats, m.errors)
          then fail "%s: counters differ from the model's" (show_cmd cmd);
          m
        end
      in
      let m = List.fold_left run empty cmds in
      (* Each id the model holds answers its outcome; every other id,
         retired or never finished, is pending. *)
      for id = 0 to m.next_id do
        if port.Ec.Port.poll id <> poll_answer m id then fail "final poll %d" id
      done;
      iface_events sink = List.rev m.events)

(* Random zero-gap pipelined traffic on the platform congests the
   4+4+4 limit.  Replaying a bus's event stream through the limit: an
   issue finds its category below four, a rejection finds it at four,
   and each finish or error ends an outstanding transaction. *)
let prop_bus_rejections =
  QCheck.Test.make ~name:"bus rejections = full model category on zero-gap traffic"
    ~count:20
    (QCheck.map ~rev:Fun.id
       (fun c -> { c with Platform_traffic.max_gap = 0; mode = `Pipelined })
       (Platform_traffic.arb ()))
    (fun c ->
      List.for_all
        (fun level ->
          let sink = Obs.Sink.create () in
          let r =
            Core.Runner.run_trace ~level ~mode:`Pipelined ~sink
              ?init:(Platform_traffic.init c) (Platform_traffic.trace c)
          in
          let count = Array.make 3 0 and cat_of = Hashtbl.create 64 in
          let name = Core.Level.to_string level in
          List.iter
            (fun (kind, cycle, id, arg, _) ->
              match kind with
              | Obs.Event.Txn_issued ->
                if count.(arg) >= limit then
                  fail "%s: %d issued at cycle %d with %s full" name id cycle (cat_name arg);
                count.(arg) <- count.(arg) + 1;
                Hashtbl.replace cat_of id arg
              | Obs.Event.Txn_rejected ->
                if count.(arg) <> limit then
                  fail "%s: %d rejected at cycle %d with %d %s outstanding" name id
                    cycle count.(arg) (cat_name arg)
              | Obs.Event.Txn_finished | Obs.Event.Txn_error ->
                let c = Hashtbl.find cat_of id in
                Hashtbl.remove cat_of id;
                count.(c) <- count.(c) - 1
              | _ -> ())
            (iface_events sink);
          Array.for_all (( = ) 0) count
          && Hashtbl.length cat_of = 0
          && r.Core.Runner.txns + r.Core.Runner.errors = c.Platform_traffic.n)
        Core.Level.[ Rtl; L1; L2 ])

let suite = List.map QCheck_alcotest.to_alcotest [ prop_iface_model; prop_bus_rejections ]
