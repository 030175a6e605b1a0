module P = Serve.Protocol
module J = Obs.Json

let code = P.error_code_to_string

(* --- requests: every constructor, each optional member both ways --- *)

let run ?(level = Core.Level.L1) ?(mode = `Serial) ?(estimate = true)
    ?(profile = false) ?(compiled = false) workload =
  P.Run { P.workload; level; mode; estimate; profile; compiled }

let replay ?(level = Core.Level.L1) ?(mode = `Serial) ?(scales = [ 1.0 ])
    ?fabric workload =
  P.Replay { P.workload; level; mode; scales; fabric }

let fabric fab_policy fab_topology = { P.fab_policy; fab_topology }

let inline_lines =
  Ec.Trace.to_lines
    [
      Ec.Trace.item (Ec.Txn.single_read ~id:0 ~kind:Ec.Txn.Instruction 0x40);
      Ec.Trace.item ~gap:3
        (Ec.Txn.single_write ~id:0 ~width:Ec.Txn.W16 0x100002 ~value:0xBEEF);
      Ec.Trace.item
        (Ec.Txn.burst_write ~id:0 0x100010 ~values:[| 1; 2; 3; 0xFFFFFFFF |]);
    ]

let requests =
  let open Core.Level in
  [
    (J.Int 3, run ~level:L2 ~mode:`Pipelined ~profile:true (P.Table3 48));
    ( J.Null,
      run ~level:Rtl ~estimate:false ~compiled:true (P.Mixed_phase 100) );
    (J.String "a\"b", run ~level:L3 P.Characterization);
    (J.Float 2.5, run (P.Inline inline_lines));
    (J.Int 0, P.Explore { P.applets = []; configs = []; level = L1; adaptive = false });
    ( J.Int 1,
      P.Explore
        {
          P.applets = [ "fib"; "wallet" ];
          configs = [ "w16-dedicated" ];
          level = L2;
          adaptive = true;
        } );
    (J.Int 2, P.Explore { P.applets = [ "gcd" ]; configs = []; level = L3; adaptive = false });
    (J.Int 4, replay ~scales:[ 0.5; 1.0; 2.0 ] (P.Mixed_phase 100));
    ( J.Int 5,
      replay ~level:L2 ~mode:`Pipelined ~scales:[ 1.0; 1.5 ]
        ~fabric:(fabric Ec.Arbiter.Fixed_priority Core.Contention.Single)
        (P.Table3 48) );
    ( J.Int 6,
      replay ~fabric:(fabric Ec.Arbiter.Round_robin Core.Contention.Bridged)
        P.Characterization );
    ( J.Int 7,
      replay ~scales:[ 0.1; 1e-3; 3.0e10; 1.0 /. 3.0 ]
        ~fabric:(fabric (Ec.Arbiter.Weighted [| 4; 2; 1 |]) Core.Contention.Bridged)
        (P.Inline inline_lines) );
    (J.Int 8, P.Stats);
    (J.Int 9, P.Metrics);
    (J.Int 10, P.Subscribe { P.streams = [ `Metrics ]; interval_ms = 10 });
    (J.Int 11, P.Subscribe { P.streams = [ `Trace ]; interval_ms = 60_000 });
    ( J.Int 12,
      P.Subscribe { P.streams = [ `Energy; `Metrics; `Trace ]; interval_ms = 500 } );
    (J.Int 13, P.Unsubscribe);
    (J.Int 14, P.Shutdown);
  ]

let request_line (id, req) =
  let doc = P.request_to_json ~id req in
  let outcome =
    match P.request_of_json doc with
    | Ok req' when req' = req -> "round-trips"
    | Ok _ -> "decodes differently"
    | Error (c, _) -> code c
  in
  Printf.sprintf "request\t%s\t%s" (J.to_string doc) outcome

(* --- request documents: defaults, leniencies and rejections --- *)

let parse text =
  match J.of_string text with
  | Ok doc -> doc
  | Error e -> failwith (Printf.sprintf "transcript document %S: %s" text e)

(* Decodes a request document the way the server does: a payload that is
   not JSON is [bad_json]; otherwise the request's canonical re-encoding
   or its error code. *)
let decode_request text =
  let outcome =
    match J.of_string text with
    | Error _ -> code P.Bad_json
    | Ok doc -> (
      match P.request_of_json doc with
      | Ok req -> J.to_string (P.request_to_json ~id:(P.request_id doc) req)
      | Error (c, _) -> code c)
  in
  Printf.sprintf "decode-request\t%s\t%s" text outcome

let request_docs =
  [
    (* defaults and leniencies *)
    {|{"type":"run","workload":{"kind":"table3","n":8}}|};
    {|{"type":"run","workload":{"kind":"mixed","n":8.0},"id":"x"}|};
    {|{"type":"run","workload":{"kind":"characterization"},"level":"l3","estimate":false}|};
    {|{"type":"run","workload":{"kind":"inline","lines":["# comment","0 RD 32 0x100000 1",""]}}|};
    {|{"type":"run","workload":{"kind":"table3","n":1000000},"fabric":{"policy":"zzz"}}|};
    {|{"type":"explore"}|};
    {|{"type":"explore","applets":[],"configs":["w8-dedicated"],"level":"rtl"}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8}}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"fabric":{}}|};
    {|{"type":"replay","workload":{"kind":"table3","n":1},"scales":[1,2.5],"mode":"pipelined","level":"l2"}|};
    {|{"type":"subscribe","streams":["trace"]}|};
    {|{"type":"subscribe","streams":["energy","metrics"],"interval_ms":10.0}|};
    {|{"type":"stats","id":7,"extra":true}|};
    {|{"type":"metrics","id":[1,2]}|};
    {|{"type":"unsubscribe","id":null}|};
    {|{"type":"shutdown","id":{"k":1}}|};
    (* rejections: test_request_codec and test_malformed_frames (and an
       rtl replay, which decodes now that every level has a plan) *)
    {|{definitely not json|};
    {|{"type":"frobnicate","id":7}|};
    {|{"id":1}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"level":"rtl"}|};
    {|{"type":"run","workload":{"kind":"inline","lines":["not a transaction"]}}|};
    {|{"type":"run","workload":{"kind":"inline","lines":["-1 RI 8 0x0 1"]},"id":11}|};
    (* rejections: shape *)
    {|[]|};
    {|null|};
    {|{"type":1}|};
    {|{"type":"Run"}|};
    {|{"type":"run"}|};
    {|{"type":"run","workload":3}|};
    {|{"type":"run","workload":{}}|};
    {|{"type":"run","workload":{"kind":5}}|};
    {|{"type":"run","workload":{"kind":"zzz"}}|};
    {|{"type":"run","workload":{"kind":"table3"}}|};
    {|{"type":"run","workload":{"kind":"table3","n":0}}|};
    {|{"type":"run","workload":{"kind":"table3","n":1000001}}|};
    {|{"type":"run","workload":{"kind":"table3","n":"8"}}|};
    {|{"type":"run","workload":{"kind":"table3","n":1.5}}|};
    {|{"type":"run","workload":{"kind":"mixed","n":-1}}|};
    {|{"type":"run","workload":{"kind":"inline"}}|};
    {|{"type":"run","workload":{"kind":"inline","lines":[]}}|};
    {|{"type":"run","workload":{"kind":"inline","lines":[1]}}|};
    {|{"type":"run","workload":{"kind":"inline","lines":"0 RD 32 0x0 1"}}|};
    {|{"type":"run","workload":{"kind":"inline","lines":["0 RI 8 0x0 1"]}}|};
    {|{"type":"run","workload":{"kind":"inline","lines":["0 RD 12 0x0 1"]}}|};
    {|{"type":"run","workload":{"kind":"inline","lines":["0 WD 32 0x0 1 zz"]}}|};
    {|{"type":"run","workload":{"kind":"inline","lines":["0 RD 32 0x0 1 0x5"]}}|};
    {|{"type":"run","workload":{"kind":"inline","lines":["x RD 32 0x0 1"]}}|};
    {|{"type":"run","workload":{"kind":"table3","n":8},"level":"x"}|};
    {|{"type":"run","workload":{"kind":"table3","n":8},"level":3}|};
    {|{"type":"run","workload":{"kind":"table3","n":8},"mode":"x"}|};
    {|{"type":"run","workload":{"kind":"table3","n":8},"estimate":"yes"}|};
    {|{"type":"run","workload":{"kind":"table3","n":8},"profile":1}|};
    {|{"type":"run","workload":{"kind":"table3","n":8},"compiled":null}|};
    {|{"type":"explore","applets":"fib"}|};
    {|{"type":"explore","applets":[1]}|};
    {|{"type":"explore","applets":["zzz"]}|};
    {|{"type":"explore","configs":["zzz"]}|};
    {|{"type":"explore","level":"x"}|};
    {|{"type":"explore","adaptive":"x"}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"level":"l3"}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"level":"l3","fabric":{}}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"mode":"x"}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"scales":[]}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"scales":[0]}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"scales":[-1]}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"scales":["1"]}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"scales":1.0}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"fabric":3}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"fabric":{"policy":"zzz"}}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"fabric":{"policy":1}}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"fabric":{"topology":"ring"}}|};
    {|{"type":"replay","workload":{"kind":"table3","n":8},"fabric":{"policy":"wrr:"}}|};
    {|{"type":"subscribe"}|};
    {|{"type":"subscribe","streams":[]}|};
    {|{"type":"subscribe","streams":["x"]}|};
    {|{"type":"subscribe","streams":[1]}|};
    {|{"type":"subscribe","streams":["trace"],"interval_ms":9}|};
    {|{"type":"subscribe","streams":["trace"],"interval_ms":60001}|};
    {|{"type":"subscribe","streams":["trace"],"interval_ms":"500"}|};
  ]

(* --- frames: every constructor, each optional member both ways --- *)

let pool = { P.session_hits = 1; session_builds = 2; plan_hits = 3; plan_builds = 4 }

let row ?value ?switches ?error_bound_pj () =
  {
    P.config = "w16-dedicated";
    applet = "fib";
    row_level = Core.Level.L2;
    row_cycles = 1234;
    row_bus_pj = 98765.4321;
    transactions = 56;
    steps = 78;
    value;
    correct = true;
    switches;
    error_bound_pj;
  }

let point point_buckets =
  {
    P.point_seq = 2;
    scale = 1.5;
    point_bus_pj = 4077.5;
    point_cycles = 356;
    point_txns = 64;
    point_transitions = 1000;
    point_buckets;
  }

let error_frame c retry_after_ms =
  P.Error { P.code = c; message = "msg \"quoted\"\n"; retry_after_ms }

let all_codes =
  P.[ Bad_frame; Oversized; Bad_json; Bad_request; Unknown_type; Busy; Draining; Failed ]

let frames =
  [
    P.Accepted 0;
    P.Accepted 5;
    P.Result
      {
        P.level = Core.Level.Rtl;
        cycles = 356;
        txns = 64;
        beats = 70;
        errors = 1;
        bus_pj = 4077.5;
        component_pj = 0.1;
        transitions = 1234;
        wall_seconds = 1e-6;
      };
    P.Row (0, row ());
    P.Row (3, row ~value:6765 ~switches:4 ~error_bound_pj:12.25 ());
    P.Row (4, row ~value:(-1) ());
    P.Row (5, row ~switches:0 ~error_bound_pj:0.0 ());
    P.Point (point None);
    P.Point (point (Some []));
    P.Point (point (Some [ 1.5; 0.1; 1e-12; -0.0 ]));
    P.Energy (0, []);
    P.Energy (7, [ {|{"cycle":0,"pj":1.5}|}; "" ]);
    P.Stats_reply
      {
        P.queue_depth = 1;
        queue_capacity = 64;
        stats_draining = false;
        uptime_s = 12.5;
        accepted = 10;
        rejected = 2;
        completed = 8;
        failed = 0;
        spans_dropped = 3;
        workers = [];
        pool;
        rendered = "";
      };
    P.Stats_reply
      {
        P.queue_depth = 0;
        queue_capacity = 1;
        stats_draining = true;
        uptime_s = 0.0;
        accepted = 0;
        rejected = 0;
        completed = 0;
        failed = 1;
        spans_dropped = 0;
        workers = [ { P.worker = 0; jobs = 5 }; { P.worker = 1; jobs = 0 } ];
        pool;
        rendered = "pool\ttable\n";
      };
    P.Metrics_reply
      {
        P.metrics_seq = 0;
        snapshot = J.Obj [ ("a", J.Int 1); ("b", J.List [ J.Float 0.5; J.Null ]) ];
        metrics_rendered = "tables";
      };
    P.Metrics_reply { P.metrics_seq = 9; snapshot = J.Null; metrics_rendered = "" };
    P.Trace_chunk { P.trace_seq = 0; trace_events = []; trace_missed = 0 };
    P.Trace_chunk
      {
        P.trace_seq = 4;
        trace_events =
          [ J.Obj [ ("name", J.String "job"); ("ph", J.String "B"); ("ts", J.Int 17) ] ];
        trace_missed = 2;
      };
    P.Subscribed { P.sub_streams = [ `Metrics ]; sub_interval_ms = 500 };
    P.Subscribed { P.sub_streams = [ `Trace; `Energy; `Metrics ]; sub_interval_ms = 10 };
  ]
  @ List.map (fun c -> error_frame c None) all_codes
  @ [
      error_frame P.Busy (Some 250);
      error_frame P.Busy (Some 0);
      P.Done { P.frames = 3; latency_ms = 12.345; done_worker = 1; done_pool = pool };
    ]

let frame_line frame =
  let doc = P.frame_to_json ~id:(J.Int 42) frame in
  let outcome =
    match P.frame_of_json doc with
    | Ok (J.Int 42, frame') when frame' = frame -> "round-trips"
    | Ok _ -> "decodes differently"
    | Error _ -> "error"
  in
  Printf.sprintf "frame\t%s\t%s" (J.to_string doc) outcome

(* Frame documents: a decodable one prints its canonical re-encoding, a
   rejected one only "error" (the message is not part of the contract). *)
let decode_frame text =
  let outcome =
    match P.frame_of_json (parse text) with
    | Ok (id, frame) -> J.to_string (P.frame_to_json ~id frame)
    | Error _ -> "error"
  in
  Printf.sprintf "decode-frame\t%s\t%s" text outcome

let frame_docs =
  let pool = {|{"session_hits":1,"session_builds":2,"plan_hits":3,"plan_builds":4}|} in
  let row = {|"config":"c","applet":"a","level":"l1","cycles":1,"bus_pj":2,"transactions":3,"steps":4,"correct":false|} in
  [
    (* absent optional members, ints as floats, extra members *)
    {|{"frame":"accepted","queue_depth":3.0,"extra":1}|};
    {|{"frame":"row","seq":1,"row":{|} ^ row ^ {|}}|};
    {|{"frame":"row","seq":1,"row":{|} ^ row ^ {|,"value":null,"switches":null,"error_bound_pj":null}}|};
    {|{"frame":"row","seq":1,"row":{|} ^ row ^ {|,"value":7,"switches":2,"error_bound_pj":3}}|};
    {|{"frame":"point","id":1,"seq":0,"scale":1,"bus_pj":2,"cycles":3,"txns":4,"transitions":5}|};
    {|{"frame":"point","seq":0,"scale":1,"bus_pj":2,"cycles":3,"txns":4,"transitions":5,"buckets":[1,2.5]}|};
    {|{"frame":"error","code":"busy","message":"m"}|};
    {|{"frame":"error","code":"busy","message":"m","retry_after_ms":20}|};
    {|{"frame":"metrics","seq":0,"snapshot":null,"rendered":""}|};
    {|{"frame":"trace","seq":0,"events":[1,"x",null],"missed":0}|};
    {|{"frame":"done","frames":0,"latency_ms":1,"worker":0,"pool":|} ^ pool ^ {|}|};
    {|{"frame":"stats","queue_depth":0,"queue_capacity":1,"draining":false,"uptime_s":0,"accepted":0,"rejected":0,"completed":0,"failed":0,"spans_dropped":0,"workers":[],"pool":|} ^ pool ^ {|,"rendered":""}|};
    (* rejections *)
    {|3|};
    {|{}|};
    {|{"frame":1}|};
    {|{"frame":"zzz"}|};
    {|{"frame":"accepted"}|};
    {|{"frame":"accepted","queue_depth":"3"}|};
    {|{"frame":"result"}|};
    {|{"frame":"result","result":{"level":"x","cycles":1,"txns":1,"beats":1,"errors":0,"bus_pj":1,"component_pj":1,"transitions":1,"wall_seconds":1}}|};
    {|{"frame":"row","row":{|} ^ row ^ {|}}|};
    {|{"frame":"row","seq":1}|};
    {|{"frame":"row","seq":1,"row":{"config":"c"}}|};
    {|{"frame":"point","seq":0,"scale":1,"bus_pj":2,"cycles":3,"txns":4,"transitions":5,"buckets":["x"]}|};
    {|{"frame":"point","seq":0,"scale":1,"bus_pj":2,"cycles":3,"txns":4,"transitions":5,"buckets":3}|};
    {|{"frame":"point","seq":0,"scale":"1","bus_pj":2,"cycles":3,"txns":4,"transitions":5}|};
    {|{"frame":"energy","seq":0}|};
    {|{"frame":"energy","seq":0,"lines":[1]}|};
    {|{"frame":"stats","queue_depth":0,"queue_capacity":1,"draining":false,"uptime_s":0,"accepted":0,"rejected":0,"completed":0,"failed":0,"spans_dropped":0,"workers":[{"worker":1}],"pool":|} ^ pool ^ {|,"rendered":""}|};
    {|{"frame":"stats","queue_depth":0,"queue_capacity":1,"draining":false,"uptime_s":0,"accepted":0,"rejected":0,"completed":0,"failed":0,"spans_dropped":0,"workers":[],"rendered":""}|};
    {|{"frame":"metrics","seq":0,"rendered":""}|};
    {|{"frame":"trace","seq":0,"missed":0}|};
    {|{"frame":"trace","seq":0,"events":{},"missed":0}|};
    {|{"frame":"subscribed","streams":["x"],"interval_ms":10}|};
    {|{"frame":"subscribed","streams":[1],"interval_ms":10}|};
    {|{"frame":"subscribed","interval_ms":10}|};
    {|{"frame":"error","code":"zzz","message":"m"}|};
    {|{"frame":"error","code":"busy"}|};
    {|{"frame":"done","frames":0,"latency_ms":1,"worker":0}|};
    {|{"frame":"done","frames":0,"latency_ms":1,"worker":0,"pool":{"session_hits":1}}|};
  ]

let text () =
  List.map request_line requests
  @ List.map decode_request request_docs
  @ List.map frame_line frames
  @ List.map decode_frame frame_docs
  |> List.map (fun l -> l ^ "\n")
  |> String.concat ""
