(* Workload [serve]: a closed loop of two clients against an in-process
   daemon over a Unix socket.

   Each client sends its next request only when the previous one's
   stream has ended.  A client's work cycle is 40 requests: 32 short
   compiled [run]s (Table-3 traces of 16 to 64 transactions, memo hits),
   5 [replay]s of seeded inline traces, 2 single-cell [explore]s and 1
   [stats].  In every eighth cycle one of the replays carries a trace
   never seen before (plan capture and a memo write on the daemon).
   Both clients start each cycle together.  Every repeatable request
   must answer as it did in the set-up's warm pass, and those answers
   (plus a sample of the never-seen ones) must equal the same job run in
   this process. *)

module P = Serve.Protocol

let clients = 2
(* One worker domain: with two, every minor collection waits for both
   domains, and on a shared 2-core host the tail latency then follows
   the other tenants' load rather than the program. *)
let domains = 1
let cycles_per_second = 70.0
let scales = [ 0.75; 1.0; 1.25; 1.5 ]
let seen_count = 4

type slot = {
  kind : string;
  request : P.request;
  key : string option;  (** identity of a repeatable request *)
  fresh : bool;  (** carries a never-seen trace *)
}

let run_slot n level =
  {
    kind = "run";
    request =
      P.Run
        { workload = P.Table3 n; level; mode = `Serial; estimate = true; profile = false; compiled = true };
    key = Some (Printf.sprintf "run:%d:%s" n (Core.Level.to_string level));
    fresh = false;
  }

let replay_request lines level =
  P.Replay { workload = P.Inline lines; level; mode = `Serial; scales; fabric = None }

(* The repeatable inline traces, serialized. *)
let seen_traces ~seed =
  Array.init seen_count (fun i -> Ec.Trace.to_lines (Util.seeded_trace ~seed (20 + i) 192))

(* The single cells [explore] requests ask for: the fib applet on the
   first three interface configurations. *)
let cells =
  List.map (fun c -> (Jcvm.Applets.fib, c)) (List.filteri (fun i _ -> i < 3) Jcvm.Configs.standard)

let table3_sizes = [ 16; 32; 48; 64 ]
let levels = Core.Level.[ L1; L2 ]

let level_of rng = if Sim.Rng.bool rng then Core.Level.L1 else Core.Level.L2

let explore_slot (applet, config) =
  {
    kind = "explore";
    request =
      P.Explore
        { applets = [ applet.Jcvm.Applets.name ]; configs = [ config.Jcvm.Configs.name ];
          level = Core.Level.L1; adaptive = false };
    key = Some (Printf.sprintf "explore:%s:%s" applet.name config.name);
    fresh = false;
  }

let seen_slot seen j level =
  {
    kind = "replay";
    request = replay_request seen.(j) level;
    key = Some (Printf.sprintf "replay:%d:%s" j (Core.Level.to_string level));
    fresh = false;
  }

let fresh_slot ~seed level =
  let t = Core.Workloads.random_trace ~rng:(Sim.Rng.create ~seed) ~n:64 () in
  { kind = "replay_new"; request = replay_request (Ec.Trace.to_lines t) level; key = None; fresh = true }

(* Every repeatable request once, and one never-seen trace per level. *)
let warm_slots seen ~seed =
  List.concat_map (fun n -> List.map (run_slot n) levels) table3_sizes
  @ List.concat_map (fun j -> List.map (seen_slot seen j) levels) (List.init seen_count Fun.id)
  @ List.map explore_slot cells
  @ List.map (fresh_slot ~seed:(-seed)) levels

(* The 40 requests of one client cycle; the composition is fixed, the
   seed picks sizes, levels, traces and cells. *)
let cycle_slots seen ~rng ~fresh ~fresh_seed =
  List.init 40 (fun i ->
      if i = 39 then { kind = "stats"; request = P.Stats; key = None; fresh = false }
      else if i = 17 && fresh then fresh_slot ~seed:fresh_seed (level_of rng)
      else if i mod 10 = 3 || i = 17 then
        let j = Sim.Rng.int rng seen_count in
        seen_slot seen j (level_of rng)
      else if i = 25 || i = 35 then explore_slot (List.nth cells (Sim.Rng.int rng (List.length cells)))
      else run_slot (16 * (1 + Sim.Rng.int rng 4)) (level_of rng))

(* The simulated figures a response stream carries, in order. *)
let figures frames =
  List.concat_map
    (function
      | P.Result r ->
        [ float_of_int r.cycles; float_of_int r.txns; float_of_int r.beats; float_of_int r.errors;
          r.bus_pj; r.component_pj; float_of_int r.transitions ]
      | P.Point p ->
        [ float_of_int p.point_cycles; float_of_int p.point_txns; float_of_int p.point_transitions;
          p.point_bus_pj ]
      | P.Row (_, w) ->
        [ float_of_int w.row_cycles; float_of_int w.transactions; float_of_int w.steps; w.row_bus_pj;
          (if w.correct then 1.0 else 0.0) ]
      | _ -> [])
    frames

(* The same job, run in this process without the daemon. *)
let direct request =
  match request with
  | P.Run r ->
    figures
      [ P.Result
          (P.result_body_of_runner
             (Core.Runner.run_trace ~level:r.level ~mode:r.mode ~estimate:r.estimate
                ~init:Core.Runner.fill_memories (P.trace_of_workload r.workload))) ]
  | P.Replay r ->
    let trace = P.trace_of_workload r.workload in
    List.concat_map
      (fun scale ->
        let res =
          Core.Runner.run_trace ~level:r.level ~mode:r.mode ~init:Core.Runner.fill_memories
            ~table:(Power.Characterization.scale Power.Characterization.default scale)
            trace
        in
        [ float_of_int res.cycles; float_of_int res.txns; float_of_int res.transitions; res.bus_pj ])
      r.scales
  | P.Explore e ->
    let applet = List.find (fun (a : Jcvm.Applets.t) -> a.name = List.hd e.applets) Jcvm.Applets.all in
    let config =
      List.find (fun (c : Jcvm.Configs.t) -> c.name = List.hd e.configs) Jcvm.Configs.standard
    in
    figures
      [ P.Row (0, P.row_body_of_exploration (Core.Exploration.run_one ~level:e.level ~config applet)) ]
  | _ -> []

let txns_of frames =
  List.fold_left
    (fun a -> function
      | P.Result r -> a + r.txns
      | P.Point p -> a + p.point_txns
      | P.Row (_, w) -> a + w.transactions
      | _ -> a)
    0 frames

type server = {
  path : string;
  daemon : Serve.Server.t;
  thread : Thread.t;
  conns : Serve.Client.t array;
  warm : (string, P.request * float list) Hashtbl.t;
      (** the warm pass's answer to every repeatable request *)
}

let stop s =
  Array.iter Serve.Client.close s.conns;
  Serve.Server.drain s.daemon;
  Thread.join s.thread;
  if Sys.file_exists s.path then Sys.remove s.path

let request conn request =
  match Serve.Client.request conn request with
  | Ok frames -> frames
  | Error e -> failwith ("serve: request failed: " ^ e)

let start_count = ref 0

(* Daemon start, both connections, and one warm pass over every
   repeatable request (memo writes, pooled sessions). *)
let start ~seen ~seed () =
  incr start_count;
  (* Relative to the working directory: a socket path must stay short. *)
  let path = Printf.sprintf "%s/s%d-%d.sock" Util.out_dir (Unix.getpid ()) !start_count in
  let daemon = Serve.Server.create ~unix_path:path ~domains ~queue_depth:64 () in
  let thread = Thread.create Serve.Server.serve daemon in
  let conns = Array.init clients (fun _ -> Serve.Client.connect (`Unix path)) in
  let warm = Hashtbl.create 64 in
  List.iter
    (fun slot ->
      let figs = figures (request conns.(0) slot.request) in
      Option.iter (fun key -> Hashtbl.replace warm key (slot.request, figs)) slot.key)
    (warm_slots seen ~seed);
  let s = { path; daemon; thread; conns; warm } in
  (s, fun () -> stop s)

(* Per-client results, merged after the threads join. *)
type client_log = {
  log : Util.oplog;
  recorder : Span.recorder;
  mutable busy : int;
  mutable failed : int;
  mutable server_ms : (int * float) list;  (** cycle, [done.latency_ms] of traced requests *)
  mutable encode : float * int;  (** seconds, frames *)
  mutable decode : float * int;
  mutable fresh_samples : (P.request * float list) list;
  mutable cycle_marks : (int * float * float * int) list;  (** cycle, start, end, txns *)
  digest : Util.Digest_acc.t;
}

(* Obs.Json print and parse of the request and its response frames. *)
let json_probe cl ~id request frames =
  let r = cl.recorder in
  let id = Obs.Json.Int id in
  let docs = P.request_to_json ~id request :: List.map (P.frame_to_json ~id) frames in
  let texts, enc =
    Util.time (fun () ->
        Span.with_ r ~layer:"Obs.Json" "to_string" (fun () -> List.map Obs.Json.to_string docs))
  in
  let _, dec =
    Util.time (fun () ->
        Span.with_ r ~layer:"Obs.Json" "of_string" (fun () -> List.map Obs.Json.of_string texts))
  in
  let n = List.length docs in
  cl.encode <- (fst cl.encode +. enc, snd cl.encode + n);
  cl.decode <- (fst cl.decode +. dec, snd cl.decode + n)

(* A reusable rendezvous of [n] threads. *)
let barrier n =
  let m = Mutex.create () and c = Condition.create () in
  let waiting = ref 0 and generation = ref 0 in
  fun () ->
    Mutex.lock m;
    let g = !generation in
    incr waiting;
    if !waiting = n then begin
      waiting := 0;
      incr generation;
      Condition.broadcast c
    end
    else
      while !generation = g do
        Condition.wait c m
      done;
    Mutex.unlock m

let client_loop ~seed ~seen ~cycles ~traced ~sync ~warm conn i cl =
  let rng = Util.seeded_rng ~seed (100 + i) in
  let r = cl.recorder in
  for c = 0 to cycles - 1 do
    let slots =
      cycle_slots seen ~rng ~fresh:(c mod 8 = i) ~fresh_seed:((seed * 1_000_003) + (i * 100_003) + c + 1)
    in
    r.on <- traced && c mod 2 = 1;
    (* The other client waits at the rendezvous meanwhile. *)
    if i = 0 && c mod 4 = 0 then Util.Calib.sample_cycle c;
    sync ();
    let start = Util.now () and txns = ref 0 in
    List.iteri
      (fun k slot ->
        let id = (c * 40) + k in
        Span.begin_op r id;
        let t0 = Util.now () in
        let response =
          try
            Span.with_ r ~layer:"Serve.Client" ("request:" ^ slot.kind) (fun () ->
                Serve.Client.request ~id conn slot.request)
          with e -> Error (Printexc.to_string e)
        in
        let rtt = (Util.now () -. t0) *. 1000.0 in
        Span.end_op r;
        match response with
        | Error e ->
          prerr_endline ("serve request failed: " ^ e);
          cl.failed <- cl.failed + 1
        | Ok frames ->
          let busy = List.exists (function P.Error { code = P.Busy; _ } -> true | _ -> false) frames in
          let failed = List.exists (function P.Error _ -> true | _ -> false) frames in
          if busy then cl.busy <- cl.busy + 1;
          let figs = figures frames in
          (* A repeatable request must answer as it did in the warm pass. *)
          let mismatch =
            match slot.key with
            | Some key -> (
              match Hashtbl.find_opt warm key with
              | Some (_, first) -> not (List.equal Util.bits_equal first figs)
              | None -> true)
            | None -> false
          in
          if failed || mismatch then cl.failed <- cl.failed + 1
          else begin
            List.iter (Util.Digest_acc.add_float cl.digest) figs;
            if slot.fresh && c mod 32 < 8 then
              cl.fresh_samples <- (slot.request, figs) :: cl.fresh_samples;
            let n = txns_of frames in
            txns := !txns + n;
            Util.record cl.log
              { Util.kind = slot.kind; cycle_ix = c; ms = rtt; wall_ms = rtt; txns = n; units = 1; cycles = 0; traced = r.on };
            if r.on then begin
              List.iter
                (function
                  | P.Done dn -> cl.server_ms <- (c, dn.latency_ms) :: cl.server_ms
                  | _ -> ())
                frames;
              if k mod 4 = 0 then json_probe cl ~id slot.request frames
            end
          end)
      slots;
    if not r.on then cl.cycle_marks <- (c, start, Util.now (), !txns) :: cl.cycle_marks
  done;
  r.on <- traced

(* Mean of a daemon phase histogram between two metrics snapshots, ms. *)
let phase_ms before after phase =
  let get doc field =
    Option.value ~default:0.0
      (Option.bind
         (Option.bind (Option.bind (Obs.Json.member "queue" doc) (Obs.Json.member phase))
            (Obs.Json.member field))
         Obs.Json.number_opt)
  in
  Util.ratio (get after "sum" -. get before "sum") (get after "total" -. get before "total") /. 1000.0

let snapshot conn =
  List.find_map (function P.Metrics_reply m -> Some m.snapshot | _ -> None) (request conn P.Metrics)
  |> Option.value ~default:Obs.Json.Null

(* A cycle lasts from the first client's start to the last client's end;
   its work is both clients' requests. *)
let merge_cycles cls =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun cl ->
      List.iter
        (fun (c, s, e, txns) ->
          let s0, e0, t0, n0 = Option.value ~default:(infinity, neg_infinity, 0, 0) (Hashtbl.find_opt tbl c) in
          Hashtbl.replace tbl c (Float.min s s0, Float.max e e0, t0 + txns, n0 + 40))
        cl.cycle_marks)
    cls;
  Hashtbl.fold
    (fun c (s, e, txns, n) acc ->
      { Util.c_ix = c; c_txns = float_of_int txns; c_units = float_of_int n; c_seconds = e -. s } :: acc)
    tbl []

let run ~seed ~seconds ~traced ~checks r =
  let seen = seen_traces ~seed in
  let srv, setup_s = Util.repeated_setup 7 (start ~seen ~seed) in
  Fun.protect ~finally:(fun () -> stop srv) @@ fun () ->
  let before = snapshot srv.conns.(0) in
  let cycles = Util.cycles_for ~seconds ~per_second:cycles_per_second in
  let cls =
    Array.init clients (fun i ->
        {
          log = Util.oplog ();
          recorder = Span.recorder ~tid:(i + 1);
          busy = 0;
          failed = 0;
          server_ms = [];
          encode = (0.0, 0);
          decode = (0.0, 0);
          fresh_samples = [];
          cycle_marks = [];
          digest = Util.Digest_acc.create ();
        })
  in
  let sync = barrier clients in
  let threads =
    Array.mapi
      (fun i conn ->
        Thread.create
          (fun () -> client_loop ~seed ~seen ~cycles ~traced ~sync ~warm:srv.warm conn i cls.(i))
          ())
      srv.conns
  in
  Array.iter Thread.join threads;
  let after = snapshot srv.conns.(0) in
  let log = Util.oplog () in
  Array.iter (fun cl -> List.iter (Util.record log) cl.log.ops) cls;
  let factor = Util.Calib.cycle_factors () in
  let cycle_figures = Util.to_reference log (merge_cycles cls) in
  (* The warm pass's answers, and a sample of the never-seen ones,
     against the same jobs run in process. *)
  Hashtbl.iter
    (fun key (request, figs) ->
      Util.same checks ("serve frames equal direct call: " ^ key) ~expected:(direct request) ~actual:figs)
    srv.warm;
  Array.iter
    (fun cl ->
      List.iter
        (fun (request, figs) ->
          Util.same checks "serve never-seen replay equals direct call" ~expected:(direct request)
            ~actual:figs)
        cl.fresh_samples)
    cls;
  (* Energy accuracy of the Table-3 [run] answers against the gate
     level (served figures equal the direct ones, checked above). *)
  let err level =
    Util.energy_err_pct
      (List.map
         (fun n ->
           let t = Core.Workloads.table3_trace ~n in
           let e l = (Core.Runner.run_trace ~level:l ~mode:`Serial ~init:Core.Runner.fill_memories t).bus_pj in
           (e level, e Core.Level.Rtl))
         table3_sizes)
  in
  let digest =
    let d = Util.Digest_acc.create () in
    Array.iter (fun cl -> Buffer.add_buffer d cl.digest) cls;
    Util.Digest_acc.value d
  in
  let busy = Array.fold_left (fun a cl -> a + cl.busy) 0 cls in
  let layer_metrics =
    if not traced then []
    else
      let rtt = Util.median (List.map (fun (o : Util.op) -> o.ms) (Util.ops_of ~traced:true log)) in
      let server =
        Util.median
          (Array.fold_left
             (fun a cl -> List.map (fun (c, ms) -> ms *. factor c) cl.server_ms @ a)
             [] cls)
      in
      let per_frame f =
        let s, n = Array.fold_left (fun (s, n) cl -> let s', n' = f cl in (s +. s', n + n')) (0.0, 0) cls in
        1e6 *. Util.ratio s (float_of_int n)
      in
      [
        ("serve.rtt_ms", rtt);
        ("serve.server_ms", server);
        ("serve.wire_ms", rtt -. server);
        ("serve.queue_wait_ms", phase_ms before after "queue_wait_us");
        ("serve.execute_ms", phase_ms before after "execute_us");
        ("serve.busy_ratio", Util.ratio (float_of_int busy) (float_of_int (max 1 log.count)));
        ("obs.json_encode_us", per_frame (fun cl -> cl.encode));
        ("obs.json_decode_us", per_frame (fun cl -> cl.decode));
      ]
      @ Bench.pool_metrics r (Serve.Server.pool srv.daemon)
  in
  {
    Bench.log;
    attempted = cycles * 40 * clients;
    cycle_figures;
    setup_s;
    l1_err = err Core.Level.L1;
    l2_err = err Core.Level.L2;
    failed_ops = Array.fold_left (fun a cl -> a + cl.failed) 0 cls;
    digest;
    layer_metrics;
    recorders = r :: Array.to_list (Array.map (fun cl -> cl.recorder) cls);
  }
