(* The simulation service: framing, request validation, wire-level
   bit-exactness against direct in-process runs, backpressure, and
   graceful drain (DESIGN.md section 15).

   Every server here listens on a throwaway Unix socket (and optionally
   an ephemeral TCP port) and runs [serve] on a helper thread; the test
   body plays client, then [drain] + join tears the daemon down. *)

module P = Serve.Protocol

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_socket () =
  let path = Filename.temp_file "serve-test" ".sock" in
  (* temp_file creates a regular file; the server only unlinks stale
     *sockets*, so clear the way ourselves. *)
  Unix.unlink path;
  path

(* With [latch], a test that fails while jobs are held still tears the
   daemon down: the latch is released before the drain. *)
let with_server ?(domains = 2) ?(queue_depth = 64) ?max_frame ?tcp_port
    ?handle_signals ?latch f =
  let path = temp_socket () in
  let server =
    Serve.Server.create ~unix_path:path ?tcp_port ~domains ~queue_depth
      ?max_frame ?handle_signals ?latch ()
  in
  let thread = Thread.create Serve.Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Serve.Server.Latch.release latch;
      Serve.Server.drain server;
      Thread.join thread;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f server path)

let with_client path f =
  let c = Serve.Client.connect (`Unix path) in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let frames_exn = function
  | Ok frames -> frames
  | Error e -> Alcotest.failf "client stream error: %s" e

let find_result frames =
  List.find_map (function P.Result r -> Some r | _ -> None) frames

let find_error frames =
  List.find_map (function P.Error e -> Some e | _ -> None) frames

let rows_of frames =
  List.filter_map (function P.Row (s, r) -> Some (s, r) | _ -> None) frames

let points_of frames =
  List.filter_map (function P.Point p -> Some p | _ -> None) frames

let frame_is_done = function P.Done _ -> true | _ -> false
let has_done frames = List.exists frame_is_done frames

let quick_run ?(n = 8) () =
  P.Run
    { P.workload = P.Table3 n; level = Core.Level.L1; mode = `Serial;
      estimate = true; profile = false; compiled = false }

let response_id id =
  match Obs.Json.int_opt id with
  | Some i -> i
  | None -> Alcotest.fail "response without id"

(* --- framing --- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

(* The bytes [Framing.write] puts on the wire for [payload]. *)
let frame_bytes payload =
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (String.length payload));
  Bytes.to_string header ^ payload

let write_all fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  check_int "whole write" (String.length s) n

let expect_frame what expected = function
  | Serve.Framing.Frame got -> check_bool what true (String.equal expected got)
  | _ -> Alcotest.failf "%s: expected a frame" what

let readable fd =
  let r, _, _ = Unix.select [ fd ] [] [] 0.0 in
  r <> []

let test_framing_roundtrip () =
  with_socketpair (fun a b ->
      let r = Serve.Framing.reader b in
      let payloads =
        [ ""; "x"; "null"; String.make 4096 'j'; String.make 100_000 '\xff' ]
      in
      List.iter (fun p -> Serve.Framing.write a p) payloads;
      List.iter
        (fun expected ->
          expect_frame "payload round-trips" expected (Serve.Framing.read r))
        payloads;
      (* An oversized frame is rejected by announced length, and after a
         discard the stream is usable again. *)
      Serve.Framing.write a (String.make 2048 'z');
      Serve.Framing.write a "after";
      (match Serve.Framing.read ~max_frame:1024 r with
      | Serve.Framing.Oversized n ->
        check_int "announced length" 2048 n;
        check_bool "resync discards the body" true (Serve.Framing.discard r 2048)
      | _ -> Alcotest.fail "expected oversized");
      expect_frame "next frame intact" "after"
        (Serve.Framing.read ~max_frame:1024 r));
  (* A header cut short is Truncated, a clean EOF is Closed. *)
  with_socketpair (fun c d ->
      let r = Serve.Framing.reader d in
      write_all c "\000\000";
      Unix.close c;
      (match Serve.Framing.read r with
      | Serve.Framing.Truncated -> ()
      | _ -> Alcotest.fail "expected truncated");
      match Serve.Framing.read r with
      | Serve.Framing.Closed -> ()
      | _ -> Alcotest.fail "expected closed")

let test_framing_stop () =
  (* A receive timeout plus [stop] makes a read abandonable mid-frame:
     this is what keeps one stalled peer from pinning a server reader
     (and with it, graceful drain) forever. *)
  with_socketpair (fun a b ->
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.02;
      let r = Serve.Framing.reader b in
      (* Nothing sent at all: the idle read gives up on the first expiry. *)
      (match Serve.Framing.read ~stop:(fun () -> true) r with
      | Serve.Framing.Stopped -> ()
      | _ -> Alcotest.fail "expected stopped on an idle read");
      (* A half-sent frame: header promises 100 bytes, 5 arrive, the
         peer stalls.  The read must still honour [stop]. *)
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 100l;
      ignore (Unix.write a header 0 4);
      ignore (Unix.write_substring a "stall" 0 5);
      let polls = ref 0 in
      (match
         Serve.Framing.read
           ~stop:(fun () ->
             incr polls;
             !polls >= 3)
           r
       with
      | Serve.Framing.Stopped -> ()
      | _ -> Alcotest.fail "expected stopped mid-frame");
      check_bool "stop was consulted on expiries" true (!polls >= 3))

(* Each receive timeout writes the next byte from [stop], so every read
   syscall of the reader sees exactly one new byte. *)
let test_framing_byte_at_a_time () =
  with_socketpair (fun a b ->
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.001;
      let r = Serve.Framing.reader b in
      let wire = frame_bytes "one byte at a time" ^ frame_bytes "" in
      let sent = ref 0 in
      let stop () =
        if !sent < String.length wire then begin
          write_all a (String.sub wire !sent 1);
          incr sent
        end;
        false
      in
      expect_frame "frame assembled from single bytes" "one byte at a time"
        (Serve.Framing.read ~stop r);
      expect_frame "empty frame after it" "" (Serve.Framing.read ~stop r);
      check_int "every byte was sent one by one" (String.length wire) !sent)

let test_framing_one_write () =
  with_socketpair (fun a b ->
      let r = Serve.Framing.reader b in
      let payloads = [ "accepted"; String.make 3000 'r'; ""; "done" ] in
      write_all a (String.concat "" (List.map frame_bytes payloads));
      expect_frame "first frame" "accepted" (Serve.Framing.read r);
      (* The first read took every frame already sent. *)
      check_bool "descriptor drained by the first read" false (readable b);
      List.iter
        (fun p -> expect_frame "buffered frame" p (Serve.Framing.read r))
        (List.tl payloads);
      Unix.close a;
      match Serve.Framing.read r with
      | Serve.Framing.Closed -> ()
      | _ -> Alcotest.fail "expected closed after the last frame")

let test_framing_oversized_buffered () =
  with_socketpair (fun a b ->
      let r = Serve.Framing.reader b in
      (* Oversized frame, its whole payload and the next frame in one
         write: the discard is served from the buffer. *)
      write_all a (frame_bytes (String.make 2048 'z') ^ frame_bytes "next");
      (match Serve.Framing.read ~max_frame:1024 r with
      | Serve.Framing.Oversized 2048 ->
        check_bool "discard from the buffer" true (Serve.Framing.discard r 2048)
      | _ -> Alcotest.fail "expected oversized 2048");
      expect_frame "frame after the discard" "next" (Serve.Framing.read r);
      (* Only part of the oversized payload has arrived: the discard
         drops the buffered part, then reads the rest. *)
      let big = frame_bytes (String.make 5000 'y') in
      write_all a (String.sub big 0 1000);
      (match Serve.Framing.read ~max_frame:1024 r with
      | Serve.Framing.Oversized 5000 -> ()
      | _ -> Alcotest.fail "expected oversized 5000");
      write_all a
        (String.sub big 1000 (String.length big - 1000) ^ frame_bytes "later");
      check_bool "discard across the buffer and the descriptor" true
        (Serve.Framing.discard r 5000);
      expect_frame "frame after the split discard" "later"
        (Serve.Framing.read r);
      (* The peer dies inside an oversized payload: the discard fails. *)
      write_all a (String.sub big 0 2000);
      (match Serve.Framing.read ~max_frame:1024 r with
      | Serve.Framing.Oversized 5000 -> ()
      | _ -> Alcotest.fail "expected oversized 5000 again");
      Unix.close a;
      check_bool "discard hits EOF" false (Serve.Framing.discard r 5000))

let test_framing_eof () =
  let after wire =
    with_socketpair (fun a b ->
        let r = Serve.Framing.reader b in
        write_all a wire;
        Unix.close a;
        let first = Serve.Framing.read r in
        (first, Serve.Framing.read r))
  in
  let frame = frame_bytes "payload" in
  (match after (String.sub frame 0 3) with
  | Serve.Framing.Truncated, Serve.Framing.Closed -> ()
  | _ -> Alcotest.fail "EOF in the header: expected truncated, then closed");
  (match after (String.sub frame 0 6) with
  | Serve.Framing.Truncated, Serve.Framing.Closed -> ()
  | _ -> Alcotest.fail "EOF in the payload: expected truncated, then closed");
  (match after (frame ^ String.sub frame 0 2) with
  | Serve.Framing.Frame "payload", Serve.Framing.Truncated -> ()
  | _ -> Alcotest.fail "EOF in the second header: expected frame, truncated");
  (match after frame with
  | Serve.Framing.Frame "payload", Serve.Framing.Closed -> ()
  | _ -> Alcotest.fail "EOF on a boundary: expected frame, then closed");
  match after "" with
  | Serve.Framing.Closed, Serve.Framing.Closed -> ()
  | _ -> Alcotest.fail "EOF before any byte: expected closed"

let test_framing_stop_buffered () =
  with_socketpair (fun a b ->
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 0.02;
      let r = Serve.Framing.reader b in
      (* One write: a whole frame and half of the next. *)
      let second = frame_bytes (String.make 200 'h') in
      write_all a (frame_bytes "whole" ^ String.sub second 0 100);
      let stop () = true in
      expect_frame "whole frame despite stop" "whole" (Serve.Framing.read ~stop r);
      match Serve.Framing.read ~stop r with
      | Serve.Framing.Stopped -> ()
      | _ -> Alcotest.fail "expected stopped with half a frame buffered")

(* --- request codec --- *)

(* Requests over every field's whole domain — each one set off its
   default as often as not — within what validation accepts. *)
let gen_request =
  let open QCheck.Gen in
  let any_level = oneofl Core.Level.[ Rtl; L1; L2; L3 ] in
  let mode = oneofl [ `Serial; `Pipelined ] in
  let workload =
    oneof
      [
        map (fun n -> P.Table3 n) (int_range 1 1_000_000);
        map (fun n -> P.Mixed_phase n) (int_range 1 1_000_000);
        return P.Characterization;
        map
          (fun (seed, n) ->
            let rng = Sim.Rng.create ~seed in
            P.Inline (Ec.Trace.to_lines (Core.Workloads.random_trace ~rng ~n ())))
          (pair small_nat (int_range 1 6));
      ]
  in
  let names all = list_size (int_bound 3) (oneofl all) in
  let scale = map (fun i -> float_of_int i /. 8.0) (int_range 1 1000) in
  let fabric =
    let policy =
      oneof
        [
          return Ec.Arbiter.Fixed_priority;
          return Ec.Arbiter.Round_robin;
          map
            (fun ws -> Ec.Arbiter.Weighted (Array.of_list ws))
            (list_size (int_range 1 4) (int_range 1 8));
        ]
    in
    opt
      (map2
         (fun fab_policy fab_topology -> { P.fab_policy; fab_topology })
         policy
         (oneofl Core.Contention.[ Single; Bridged ]))
  in
  oneof
    [
      (let* workload = workload and* level = any_level and* mode = mode in
       let* estimate = bool and* profile = bool and* compiled = bool in
       return (P.Run { P.workload; level; mode; estimate; profile; compiled }));
      (let* applets =
         names (List.map (fun a -> a.Jcvm.Applets.name) Jcvm.Applets.all)
       and* configs =
         names (List.map (fun c -> c.Jcvm.Configs.name) Jcvm.Configs.standard)
       and* level = any_level
       and* adaptive = bool in
       return (P.Explore { P.applets; configs; level; adaptive }));
      (let* workload = workload
       and* level = any_level
       and* mode = mode
       and* scales = list_size (int_range 1 4) scale
       and* fabric = fabric in
       (* A fabric replay needs a timed bus. *)
       let fabric = if level = Core.Level.L3 then None else fabric in
       return (P.Replay { P.workload; level; mode; scales; fabric }));
      (let* streams =
         list_size (int_range 1 3) (oneofl [ `Metrics; `Trace; `Energy ])
       and* interval_ms = int_range 10 60_000 in
       return (P.Subscribe { P.streams; interval_ms }));
      oneofl P.[ Stats; Metrics; Unsubscribe; Shutdown ];
    ]

let test_request_codec () =
  let reqs =
    QCheck.Gen.generate ~n:300 ~rand:(Random.State.make [| 18 |]) gen_request
  in
  List.iter
    (fun req ->
      let doc = P.request_to_json ~id:(Obs.Json.Int 3) req in
      match P.request_of_json doc with
      | Ok req' -> check_bool "request round-trips" true (req = req')
      | Error (_, msg) -> Alcotest.failf "decode failed: %s" msg)
    reqs;
  (* Validation rejects what the scheduler could not honour. *)
  let rejects json =
    match P.request_of_json json with
    | Ok _ -> Alcotest.fail "expected a validation error"
    | Error (code, _) -> code
  in
  let open Obs.Json in
  check_bool "unknown type" true
    (rejects (Obj [ ("type", String "frobnicate") ]) = P.Unknown_type);
  check_bool "missing type" true
    (rejects (Obj [ ("id", Int 1) ]) = P.Bad_request);
  (* Every level replays, but a fabric needs a timed bus. *)
  (match
     P.request_of_json
       (Obj
          [
            ("type", String "replay");
            ("workload", Obj [ ("kind", String "table3"); ("n", Int 8) ]);
            ("level", String "l3");
            ("fabric", Obj []);
          ])
   with
  | Error (P.Bad_request, msg) ->
    Alcotest.(check string)
      "l3 fabric replay refused"
      {|field "level": fabric masters drive timed buses (rtl/l1/l2)|} msg
  | _ -> Alcotest.fail "expected a bad_request for a fabric replay at l3");
  check_bool "malformed inline trace" true
    (rejects
       (Obj
          [
            ("type", String "run");
            ( "workload",
              Obj
                [
                  ("kind", String "inline");
                  ("lines", List [ String "not a transaction" ]);
                ] );
          ])
    = P.Bad_request);
  (* A negative gap or a sub-word fetch parses field by field but is
     refused by the trace and transaction constructors; Ec.Trace.of_lines
     reports either as a Failure naming the line, so validation rejects
     it rather than letting it escape into the reader thread. *)
  List.iter
    (fun line ->
      check_bool ("refused inline trace " ^ line) true
        (rejects
           (Obj
              [
                ("type", String "run");
                ( "workload",
                  Obj
                    [
                      ("kind", String "inline"); ("lines", List [ String line ]);
                    ] );
              ])
        = P.Bad_request))
    [ "-1 RI 8 0x0 1"; "0 RI 8 0x0 1"; "0 RD 32 0x0 1 0x5" ];
  (* Hints list what the enum tables accept, layer 3 included. *)
  match
    P.request_of_json
      (Obj
         [
           ("type", String "explore");
           ("level", String "l4");
         ])
  with
  | Error (P.Bad_request, msg) ->
    Alcotest.(check string)
      "level hint" {|field "level": unknown level "l4" (rtl|l1|l2|l3)|} msg
  | _ -> Alcotest.fail "expected a bad_request for an unknown level"

(* --- malformed wire input --- *)

let test_malformed_frames () =
  with_server ~domains:1 ~max_frame:4096 (fun _server path ->
      (* Not JSON at all: a structured error, id null, conn survives. *)
      with_client path (fun c ->
          Serve.Framing.write (Serve.Client.fd c) "{definitely not json";
          (match Serve.Client.read_typed c with
          | Ok (id, P.Error e) ->
            check_bool "id is null" true (id = Obs.Json.Null);
            check_bool "code bad_json" true (e.P.code = P.Bad_json)
          | _ -> Alcotest.fail "expected a bad_json error frame");
          (* Same connection still serves requests. *)
          let frames = frames_exn (Serve.Client.request c P.Stats) in
          check_bool "stats after bad json" true (has_done frames));
      (* Unknown request type: error echoes the id. *)
      with_client path (fun c ->
          Serve.Client.send_json c
            (Obs.Json.Obj
               [ ("type", Obs.Json.String "frobnicate");
                 ("id", Obs.Json.Int 7) ]);
          match Serve.Client.read_typed c with
          | Ok (id, P.Error e) ->
            check_bool "id echoed" true (id = Obs.Json.Int 7);
            check_bool "code unknown_type" true (e.P.code = P.Unknown_type)
          | _ -> Alcotest.fail "expected an unknown_type error frame");
      (* Oversized: rejected by announced length, conn survives. *)
      with_client path (fun c ->
          Serve.Framing.write (Serve.Client.fd c) (String.make 8192 ' ');
          (match Serve.Client.read_typed c with
          | Ok (_, P.Error e) ->
            check_bool "code oversized" true (e.P.code = P.Oversized)
          | _ -> Alcotest.fail "expected an oversized error frame");
          let frames = frames_exn (Serve.Client.request c P.Stats) in
          check_bool "stats after oversized" true (has_done frames));
      (* A trace line whose gap is negative is refused inside
         validation: the reader must answer bad_request and survive,
         not die with an exception and orphan the connection. *)
      with_client path (fun c ->
          Serve.Client.send_json c
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.String "run");
                 ("id", Obs.Json.Int 11);
                 ( "workload",
                   Obs.Json.Obj
                     [
                       ("kind", Obs.Json.String "inline");
                       ( "lines",
                         Obs.Json.List [ Obs.Json.String "-1 RI 8 0x0 1" ] );
                     ] );
               ]);
          (match Serve.Client.read_typed c with
          | Ok (id, P.Error e) ->
            check_bool "id echoed" true (id = Obs.Json.Int 11);
            check_bool "code bad_request" true (e.P.code = P.Bad_request)
          | _ -> Alcotest.fail "expected a bad_request error frame");
          let frames = frames_exn (Serve.Client.request c P.Stats) in
          check_bool "stats after negative-gap trace" true (has_done frames));
      (* Truncated: the stream dies mid-frame; the server answers with a
         bad_frame error before closing its side. *)
      with_client path (fun c ->
          let fd = Serve.Client.fd c in
          let header = Bytes.create 4 in
          Bytes.set_int32_be header 0 100l;
          ignore (Unix.write fd header 0 4);
          ignore (Unix.write_substring fd "short" 0 5);
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          match Serve.Client.read_typed c with
          | Ok (_, P.Error e) ->
            check_bool "code bad_frame" true (e.P.code = P.Bad_frame)
          | _ -> Alcotest.fail "expected a bad_frame error frame"))

(* --- stream alignment across a failed job --- *)

let test_failed_error_keeps_stream_aligned () =
  (* The server answers a job that raised with error{failed} AND the
     job's done summary (run_job).  collect must treat only
     rejection-class errors as terminal: if it stopped at the failed
     error, the unread done would surface as the first frame of the
     next response on the same connection, desyncing every request
     after it.  A fake server pins the exact frame sequence. *)
  let path = temp_socket () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let client = Serve.Client.connect (`Unix path) in
  let served, _ = Unix.accept listener in
  Fun.protect
    ~finally:(fun () ->
      Serve.Client.close client;
      (try Unix.close served with Unix.Unix_error _ -> ());
      Unix.close listener;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let send ~id frame =
        Serve.Framing.write_json served
          (P.frame_to_json ~id:(Obs.Json.Int id) frame)
      in
      let pool =
        { P.session_hits = 0; session_builds = 0; plan_hits = 0;
          plan_builds = 0 }
      in
      (* Response 1: a job that failed mid-execution... *)
      send ~id:1 (P.Accepted 1);
      send ~id:1
        (P.Error { P.code = P.Failed; message = "boom"; retry_after_ms = None });
      send ~id:1
        (P.Done
           { P.frames = 2; latency_ms = 1.0; done_worker = 0; done_pool = pool });
      (* ... response 2: a plain rejection, terminal by itself. *)
      send ~id:2
        (P.Error
           { P.code = P.Busy; message = "queue full"; retry_after_ms = Some 10 });
      (match Serve.Client.collect client with
      | Ok [ P.Accepted _; P.Error e; P.Done _ ] ->
        check_bool "failed error inside the stream" true (e.P.code = P.Failed)
      | Ok frames ->
        Alcotest.failf "response 1: unexpected %d-frame stream"
          (List.length frames)
      | Error e -> Alcotest.failf "response 1: %s" e);
      match Serve.Client.collect client with
      | Ok [ P.Error e ] ->
        check_bool "rejection terminal by itself" true (e.P.code = P.Busy)
      | Ok frames ->
        Alcotest.failf "response 2: %d frames — stream desynced"
          (List.length frames)
      | Error e -> Alcotest.failf "response 2: %s" e)

(* --- bit-exactness over the wire --- *)

let direct_run ~level ~mode workload =
  Core.Runner.run_trace ~level ~mode ~estimate:true
    ~init:Core.Runner.fill_memories
    (P.trace_of_workload workload)

let check_result_matches name (direct : Core.Runner.result) (wire : P.result_body)
    =
  check_bool (name ^ ": level") true (wire.P.level = direct.Core.Runner.level);
  check_int (name ^ ": cycles") direct.Core.Runner.cycles wire.P.cycles;
  check_int (name ^ ": txns") direct.Core.Runner.txns wire.P.txns;
  check_int (name ^ ": beats") direct.Core.Runner.beats wire.P.beats;
  check_int (name ^ ": errors") direct.Core.Runner.errors wire.P.errors;
  check_int (name ^ ": transitions") direct.Core.Runner.transitions
    wire.P.transitions;
  check_bool (name ^ ": bus_pj bit-identical") true
    (wire.P.bus_pj = direct.Core.Runner.bus_pj);
  check_bool (name ^ ": component_pj bit-identical") true
    (wire.P.component_pj = direct.Core.Runner.component_pj)

let test_run_bit_exact () =
  with_server (fun _server path ->
      with_client path (fun c ->
          List.iter
            (fun (level, mode, compiled, workload) ->
              let frames =
                frames_exn
                  (Serve.Client.request c
                     (P.Run
                        { P.workload; level; mode; estimate = true;
                          profile = false; compiled }))
              in
              match find_result frames with
              | None -> Alcotest.fail "no result frame"
              | Some wire ->
                check_result_matches
                  (Core.Level.to_string level)
                  (direct_run ~level ~mode workload)
                  wire)
            [
              (Core.Level.L1, `Pipelined, true, P.Table3 64);
              (Core.Level.L2, `Serial, true, P.Mixed_phase 120);
              (Core.Level.L1, `Serial, false, P.Table3 32);
              (Core.Level.L1, `Serial, false, P.Table3 64);
              (Core.Level.Rtl, `Serial, false, P.Table3 16);
            ]))

(* Estimation off: a compiled [run] has no energy to fold, so its reply
   equals an estimator-less interpreted run — the plan-free scalars,
   [bus_pj = 0.], [transitions = 0], and no profile even when one is
   asked for. *)
let test_run_estimate_off () =
  with_server (fun _server path ->
      with_client path (fun c ->
          List.iter
            (fun (level, mode, workload) ->
              let name = Core.Level.to_string level ^ " estimate off" in
              let frames =
                frames_exn
                  (Serve.Client.request c
                     (P.Run
                        { P.workload; level; mode; estimate = false;
                          profile = true; compiled = true }))
              in
              let direct =
                Core.Runner.run_trace ~level ~mode ~estimate:false
                  ~init:Core.Runner.fill_memories
                  (P.trace_of_workload workload)
              in
              check_bool (name ^ ": direct bus_pj = 0.") true
                (direct.Core.Runner.bus_pj = 0.);
              check_int (name ^ ": direct transitions") 0
                direct.Core.Runner.transitions;
              check_bool (name ^ ": no profile frames") false
                (List.exists (function P.Energy _ -> true | _ -> false) frames);
              match find_result frames with
              | None -> Alcotest.fail "no result frame"
              | Some wire -> check_result_matches name direct wire)
            [
              (Core.Level.L1, `Pipelined, P.Table3 64);
              (Core.Level.L2, `Serial, P.Mixed_phase 120);
            ]))

let test_profile_stream () =
  with_server (fun _server path ->
      with_client path (fun c ->
          let frames =
            frames_exn
              (Serve.Client.request c
                 (P.Run
                    { P.workload = P.Table3 48; level = Core.Level.L1;
                      mode = `Serial; estimate = true; profile = true;
                      compiled = false }))
          in
          let chunks =
            List.filter_map
              (function P.Energy (s, lines) -> Some (s, lines) | _ -> None)
              frames
          in
          check_bool "profile streamed" true (chunks <> []);
          List.iteri
            (fun i (seq, _) -> check_int "chunk sequence" i seq)
            chunks;
          let direct =
            Core.Runner.run_trace ~level:Core.Level.L1 ~mode:`Serial
              ~estimate:true ~record_profile:true
              ~init:Core.Runner.fill_memories
              (P.trace_of_workload (P.Table3 48))
          in
          let direct_lines =
            match direct.Core.Runner.profile with
            | Some p -> Power.Profile.to_jsonl_lines p
            | None -> Alcotest.fail "direct run has no profile"
          in
          let wire_lines = List.concat_map snd chunks in
          check_int "jsonl line count"
            (List.length direct_lines)
            (List.length wire_lines);
          check_bool "jsonl lines identical" true
            (List.for_all2 String.equal direct_lines wire_lines)))

let test_replay_bit_exact () =
  with_server (fun _server path ->
      with_client path (fun c ->
          let scales = [ 0.5; 1.0; 2.0 ] in
          let workload = P.Table3 40 in
          let level = Core.Level.L1 and mode = `Pipelined in
          let frames =
            frames_exn
              (Serve.Client.request c
                 (P.Replay { P.workload; level; mode; scales; fabric = None }))
          in
          let wire = points_of frames in
          let plan =
            Core.Runner.compile_trace ~level ~mode
              ~init:Core.Runner.fill_memories
              (P.trace_of_workload workload)
          in
          let points =
            List.map
              (fun s ->
                {
                  Compile.Eval.table =
                    Power.Characterization.scale Power.Characterization.default
                      s;
                  l2_params = None;
                })
              scales
          in
          let direct = Core.Runner.replay_multi ~points plan in
          check_int "one point per scale" (List.length scales)
            (List.length wire);
          List.iteri
            (fun i ((scale, (d : Core.Runner.result)), (w : P.point_body)) ->
              check_int "seq" i w.P.point_seq;
              check_bool "scale" true (w.P.scale = scale);
              check_int "cycles" d.Core.Runner.cycles w.P.point_cycles;
              check_int "txns" d.Core.Runner.txns w.P.point_txns;
              check_int "transitions" d.Core.Runner.transitions
                w.P.point_transitions;
              check_bool "bus_pj bit-identical" true
                (w.P.point_bus_pj = d.Core.Runner.bus_pj))
            (List.combine (List.combine scales direct) wire)))

(* Every level replays over the wire, and each point equals a direct
   interpreted run at its scale — the oracle the serve load of perfbench
   checks against.  At the gate level the table has no role, so every
   scale answers the same figures. *)
let test_replay_rtl_l3 () =
  with_server (fun _server path ->
      with_client path (fun c ->
          let scales = [ 0.5; 1.0; 2.0 ] in
          let workload = P.Table3 40 in
          List.iter
            (fun (level, mode) ->
              let name = Core.Level.to_string level in
              let wire =
                points_of
                  (frames_exn
                     (Serve.Client.request c
                        (P.Replay
                           { P.workload; level; mode; scales; fabric = None })))
              in
              check_int (name ^ " one point per scale") (List.length scales)
                (List.length wire);
              List.iter2
                (fun scale (w : P.point_body) ->
                  let d =
                    Core.Runner.run_trace ~level ~mode
                      ~table:
                        (Power.Characterization.scale
                           Power.Characterization.default scale)
                      ~init:Core.Runner.fill_memories
                      (P.trace_of_workload workload)
                  in
                  check_int (name ^ " cycles") d.Core.Runner.cycles
                    w.P.point_cycles;
                  check_int (name ^ " txns") d.Core.Runner.txns w.P.point_txns;
                  check_int (name ^ " transitions") d.Core.Runner.transitions
                    w.P.point_transitions;
                  check_bool (name ^ " bus_pj bit-identical") true
                    (Int64.bits_of_float w.P.point_bus_pj
                    = Int64.bits_of_float d.Core.Runner.bus_pj))
                scales wire;
              if level = Core.Level.Rtl then
                check_bool "rtl: one figure at every scale" true
                  (List.for_all
                     (fun (w : P.point_body) ->
                       w.P.point_bus_pj = (List.hd wire).P.point_bus_pj)
                     wire))
            [
              (Core.Level.Rtl, `Serial);
              (Core.Level.Rtl, `Pipelined);
              (Core.Level.L3, `Serial);
            ]))

let test_fabric_replay_bit_exact () =
  with_server (fun server path ->
      with_client path (fun c ->
          let scales = [ 0.5; 1.0; 2.0 ] in
          let workload = P.Table3 40 in
          let level = Core.Level.L2 and mode = `Pipelined in
          let policy = Ec.Arbiter.Round_robin
          and topology = Core.Contention.Bridged in
          let replay () =
            points_of
              (frames_exn
                 (Serve.Client.request c
                    (P.Replay
                       { P.workload; level; mode; scales;
                         fabric =
                           Some
                             { P.fab_policy = policy; fab_topology = topology }
                       })))
          in
          let wire = replay () in
          (* A repeated request finds the plan by its wire descriptor and
             answers the same points, bit for bit. *)
          let again = replay () in
          let bits (w : P.point_body) =
            ( Int64.bits_of_float w.P.point_bus_pj,
              Option.map (List.map Int64.bits_of_float) w.P.point_buckets )
          in
          check_bool "repeated points bit-identical" true
            (List.map bits wire = List.map bits again && wire = again);
          check_bool "one fabric plan built, then one hit" true
            (List.mem ("fabric", 1, 1)
               (Core.Pool.memo_tag_stats (Serve.Server.pool server)));
          let trace = P.trace_of_workload workload in
          let masters =
            (Core.Contention.Cpu, trace)
            :: List.filter
                 (fun (k, _) -> k <> Core.Contention.Cpu)
                 (Core.Contention.default_masters
                    ~n:(max 64 (Ec.Trace.total_txns trace))
                    topology)
          in
          let plan =
            Core.Contention.compile ~level ~policy ~topology ~mode masters
          in
          let points =
            List.map
              (fun s ->
                {
                  Compile.Eval.table =
                    Power.Characterization.scale Power.Characterization.default
                      s;
                  l2_params = None;
                })
              scales
          in
          let direct = Compile.Eval.eval_fabric_multi plan ~points in
          check_int "one point per scale" (List.length scales)
            (List.length wire);
          List.iteri
            (fun i
                 ( (scale, (d : Compile.Eval.fabric_outcome)),
                   (w : P.point_body) ) ->
              check_int "seq" i w.P.point_seq;
              check_bool "scale" true (w.P.scale = scale);
              check_int "cycles" plan.Compile.Plan.f_meta.Compile.Plan.f_cycles
                w.P.point_cycles;
              check_bool "fabric_pj bit-identical" true
                (w.P.point_bus_pj = d.Compile.Eval.fabric_pj);
              match w.P.point_buckets with
              | None -> Alcotest.fail "fabric point frame without buckets"
              | Some buckets ->
                check_int "one bucket per master"
                  plan.Compile.Plan.f_meta.Compile.Plan.f_masters
                  (List.length buckets);
                check_bool "buckets bit-identical" true
                  (List.for_all2
                     (fun (a : float) b -> a = b)
                     buckets
                     (Array.to_list d.Compile.Eval.buckets));
                check_bool "buckets sum to the frame energy" true
                  (List.fold_left ( +. ) 0.0 buckets = w.P.point_bus_pj))
            (List.combine (List.combine scales direct) wire)))

(* The daemon keys fabric plans by [Runner.plan_key] too: an rtl and then
   an L1 fabric replay of one workload share one capture, and each
   answers its own level's interpreted fabric run, buckets included, bit
   for bit. *)
let test_fabric_replay_rtl_l1_one_plan () =
  with_server (fun server path ->
      with_client path (fun c ->
          let scales = [ 1.0; 2.0 ] in
          let workload = P.Table3 40 and mode = `Pipelined in
          let policy = Ec.Arbiter.Round_robin
          and topology = Core.Contention.Single in
          let trace = P.trace_of_workload workload in
          let masters =
            (Core.Contention.Cpu, trace)
            :: List.filter
                 (fun (k, _) -> k <> Core.Contention.Cpu)
                 (Core.Contention.default_masters
                    ~n:(max 64 (Ec.Trace.total_txns trace))
                    topology)
          in
          List.iter
            (fun level ->
              let name = Core.Level.to_string level in
              let wire =
                points_of
                  (frames_exn
                     (Serve.Client.request c
                        (P.Replay
                           { P.workload; level; mode; scales;
                             fabric =
                               Some
                                 { P.fab_policy = policy;
                                   fab_topology = topology }
                           })))
              in
              List.iter2
                (fun scale (w : P.point_body) ->
                  let d =
                    Core.Contention.run ~level ~policy ~topology ~mode
                      ~table:
                        (Power.Characterization.scale
                           Power.Characterization.default scale)
                      masters
                  in
                  check_int (name ^ " cycles") d.Core.Contention.cycles
                    w.P.point_cycles;
                  check_bool (name ^ " fabric_pj bit-identical") true
                    (w.P.point_bus_pj = d.Core.Contention.fabric_pj);
                  check_bool (name ^ " buckets bit-identical") true
                    (w.P.point_buckets
                    = Some
                        (List.map
                           (fun (m : Core.Contention.master_row) ->
                             m.Core.Contention.energy_pj)
                           d.Core.Contention.rows)))
                scales wire)
            [ Core.Level.Rtl; Core.Level.L1 ];
          check_bool "one fabric plan built, then one hit" true
            (List.mem ("fabric", 1, 1)
               (Core.Pool.memo_tag_stats (Serve.Server.pool server)))))

let test_explore_bit_exact () =
  with_server (fun _server path ->
      with_client path (fun c ->
          let applet =
            List.find (fun a -> a.Jcvm.Applets.name = "fib") Jcvm.Applets.all
          in
          (* Fixed level over the standard grid... *)
          let frames =
            frames_exn
              (Serve.Client.request c
                 (P.Explore
                    { P.applets = [ "fib" ]; configs = [];
                      level = Core.Level.L2; adaptive = false }))
          in
          let wire = rows_of frames in
          check_int "one row per standard config"
            (List.length Jcvm.Configs.standard)
            (List.length wire);
          List.iteri
            (fun i (config, (seq, row)) ->
              check_int "grid order" i seq;
              let direct =
                P.row_body_of_exploration
                  (Core.Exploration.run_one ~level:Core.Level.L2 ~config applet)
              in
              check_bool
                (Printf.sprintf "row %s bit-identical" config.Jcvm.Configs.name)
                true (direct = row))
            (List.combine Jcvm.Configs.standard wire);
          (* ... and one adaptive cell, provenance included. *)
          let frames =
            frames_exn
              (Serve.Client.request c
                 (P.Explore
                    { P.applets = [ "fib" ]; configs = [ "w16-dedicated" ];
                      level = Core.Level.L1; adaptive = true }))
          in
          match rows_of frames with
          | [ (_, row) ] ->
            let config =
              List.find
                (fun c -> c.Jcvm.Configs.name = "w16-dedicated")
                Jcvm.Configs.standard
            in
            let direct =
              P.row_body_of_exploration
                (Core.Exploration.run_one
                   ~policy:(Hier.Policy.for_exploration ())
                   ~config applet)
            in
            check_bool "adaptive row bit-identical" true (direct = row);
            check_bool "adaptive row has provenance" true
              (row.P.switches <> None && row.P.error_bound_pj <> None)
          | rows -> Alcotest.failf "expected 1 adaptive row, got %d" (List.length rows)))

(* The protocol accepts layer 3 for explore; the pooled server cell
   folds it off its carrier's plan and answers the interpreted row. *)
let test_explore_l3_row () =
  with_server (fun _server path ->
      with_client path (fun c ->
          let config = List.hd Jcvm.Configs.standard in
          let frames =
            frames_exn
              (Serve.Client.request c
                 (P.Explore
                    { P.applets = [ "fib" ]; configs = [ config.Jcvm.Configs.name ];
                      level = Core.Level.L3; adaptive = false }))
          in
          check_bool "no error frame" true (find_error frames = None);
          match rows_of frames with
          | [ (_, row) ] ->
            let direct =
              P.row_body_of_exploration
                (Core.Exploration.run_one ~level:Core.Level.L3 ~config
                   Jcvm.Applets.fib)
            in
            check_bool "l3 row bit-identical" true (direct = row)
          | rows -> Alcotest.failf "expected 1 l3 row, got %d" (List.length rows)))

(* --- stats and the plan memo --- *)

(* The same compiled run, repeated: the second and later runs hit the
   serve-layer plan memo.  With two workers the runs repeat (up to 16)
   until both workers have served one, so a plan built by one worker
   must be a hit for the other. *)
let test_stats_and_plan_memo ~domains () =
  with_server ~domains (fun server path ->
      with_client path (fun c ->
          let run () =
            ignore
              (frames_exn
                 (Serve.Client.request c
                    (P.Run
                       { P.workload = P.Table3 64; level = Core.Level.L1;
                         mode = `Serial; estimate = true; profile = false;
                         compiled = true })))
          in
          let stats () =
            match
              List.find_map
                (function P.Stats_reply s -> Some s | _ -> None)
                (frames_exn (Serve.Client.request c P.Stats))
            with
            | None -> Alcotest.fail "no stats frame"
            | Some s -> s
          in
          let rec settle runs =
            let s = stats () in
            if runs < 16 && List.exists (fun w -> w.P.jobs = 0) s.P.workers
            then (
              run ();
              settle (runs + 1))
            else (runs, s)
          in
          run ();
          run ();
          let runs, s = settle 2 in
          check_int "every job accepted" runs s.P.accepted;
          check_int "every job completed" runs s.P.completed;
          check_int "nothing rejected" 0 s.P.rejected;
          check_int "nothing failed" 0 s.P.failed;
          check_int "queue idle" 0 s.P.queue_depth;
          if domains = 1 then
            check_bool "single worker served both" true
              (List.exists (fun w -> w.P.jobs = 2) s.P.workers);
          check_int "one plan build" 1 s.P.pool.P.plan_builds;
          check_int "every other run hit the plan memo" (runs - 1)
            s.P.pool.P.plan_hits;
          check_bool "rendered report present" true
            (String.length s.P.rendered > 0
            && String.length (Core.Report.pool_stats (Serve.Server.pool server))
               > 0)))

(* A layer-3 replay blocks on [Ec.Port.transact] per transaction, which
   has no issue discipline: the serial and the pipelined request share
   one plan. *)
let test_l3_plan_ignores_mode () =
  with_server ~domains:1 (fun server path ->
      with_client path (fun c ->
          let replay mode =
            points_of
              (frames_exn
                 (Serve.Client.request c
                    (P.Replay
                       { P.workload = P.Table3 40; level = Core.Level.L3; mode;
                         scales = [ 1.0 ]; fabric = None })))
          in
          let serial = replay `Serial in
          check_bool "same points in both modes" true
            (serial = replay `Pipelined);
          let pool = Serve.Server.pool server in
          check_int "one plan build" 1 (Core.Pool.memo_builds pool);
          check_int "one plan hit" 1 (Core.Pool.memo_hits pool)))

(* --- concurrency --- *)

let test_concurrent_clients_bit_exact () =
  with_server ~domains:4 ~tcp_port:0 (fun server path ->
      let port =
        match Serve.Server.tcp_port server with
        | Some p -> p
        | None -> Alcotest.fail "no tcp port bound"
      in
      let n = 8 in
      let expected i =
        match i mod 3 with
        | 0 ->
          let r = direct_run ~level:Core.Level.L1 ~mode:`Pipelined (P.Table3 (32 + i)) in
          `Run r
        | 1 ->
          let level = Core.Level.L2 and mode = `Serial in
          let plan =
            Core.Runner.compile_trace ~level ~mode
              ~init:Core.Runner.fill_memories
              (P.trace_of_workload (P.Mixed_phase 80))
          in
          let points =
            [
              {
                Compile.Eval.table =
                  Power.Characterization.scale Power.Characterization.default
                    (0.5 +. float_of_int i);
                l2_params = None;
              };
            ]
          in
          `Replay (List.hd (Core.Runner.replay_multi ~points plan))
        | _ ->
          let applet =
            List.find (fun a -> a.Jcvm.Applets.name = "fib") Jcvm.Applets.all
          in
          let config =
            List.find
              (fun c -> c.Jcvm.Configs.name = "w32-packed")
              Jcvm.Configs.standard
          in
          `Explore
            (P.row_body_of_exploration
               (Core.Exploration.run_one ~level:Core.Level.L1 ~config applet))
      in
      let expectations = List.init n expected in
      let results = Array.make n (Error "not run") in
      let worker i =
        try
          (* Even clients on the Unix socket, odd ones over TCP. *)
          let endpoint =
            if i mod 2 = 0 then `Unix path else `Tcp ("127.0.0.1", port)
          in
          let c = Serve.Client.connect endpoint in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              let req =
                match i mod 3 with
                | 0 ->
                  P.Run
                    { P.workload = P.Table3 (32 + i); level = Core.Level.L1;
                      mode = `Pipelined; estimate = true; profile = false;
                      compiled = true }
                | 1 ->
                  P.Replay
                    { P.workload = P.Mixed_phase 80; level = Core.Level.L2;
                      mode = `Serial; scales = [ 0.5 +. float_of_int i ];
                      fabric = None }
                | _ ->
                  P.Explore
                    { P.applets = [ "fib" ]; configs = [ "w32-packed" ];
                      level = Core.Level.L1; adaptive = false }
              in
              results.(i) <- Serve.Client.request_retrying c req)
        with e -> results.(i) <- Error (Printexc.to_string e)
      in
      let threads = List.init n (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      List.iteri
        (fun i exp ->
          let frames = frames_exn results.(i) in
          check_bool (Printf.sprintf "client %d finished" i) true
            (has_done frames);
          match exp with
          | `Run direct -> (
            match find_result frames with
            | Some wire ->
              check_result_matches (Printf.sprintf "client %d" i) direct wire
            | None -> Alcotest.failf "client %d: no result" i)
          | `Replay (direct : Core.Runner.result) -> (
            match points_of frames with
            | [ w ] ->
              check_bool
                (Printf.sprintf "client %d: point bit-identical" i)
                true
                (w.P.point_bus_pj = direct.Core.Runner.bus_pj
                && w.P.point_cycles = direct.Core.Runner.cycles)
            | pts -> Alcotest.failf "client %d: %d points" i (List.length pts))
          | `Explore direct -> (
            match rows_of frames with
            | [ (_, row) ] ->
              check_bool
                (Printf.sprintf "client %d: row bit-identical" i)
                true (direct = row)
            | rows -> Alcotest.failf "client %d: %d rows" i (List.length rows)))
        expectations)

(* --- backpressure --- *)

let test_backpressure () =
  (* One worker, a queue of one, and the latch closed: the worker holds
     the first job, the queue takes the second, and the rest of the
     pipelined burst is rejected busy.  Once every send has its answer
     the latch opens and the accepted jobs finish. *)
  let latch = Serve.Server.Latch.create () in
  with_server ~domains:1 ~queue_depth:1 ~latch (fun _server path ->
      with_client path (fun c ->
          let n = 8 in
          ignore (Serve.Client.send ~id:1 c (quick_run ()));
          Serve.Server.Latch.await_arrivals latch 1;
          for id = 2 to n do
            ignore (Serve.Client.send ~id c (quick_run ()))
          done;
          (* Collect stream per id until every id has a terminator. *)
          let accepted = Hashtbl.create 8 and finished = Hashtbl.create 8 in
          let busy = ref 0 and terminated = ref 0 in
          while !terminated < n do
            (match Serve.Client.read_typed c with
            | Error e -> Alcotest.failf "stream error: %s" e
            | Ok (id, frame) -> (
              let id = response_id id in
              match frame with
              | P.Accepted _ -> Hashtbl.replace accepted id ()
              | P.Done _ ->
                Hashtbl.replace finished id ();
                incr terminated
              | P.Error e when e.P.code = P.Busy ->
                incr busy;
                incr terminated;
                check_bool "busy carries retry_after_ms" true
                  (match e.P.retry_after_ms with Some ms -> ms > 0 | None -> false)
              | P.Error e ->
                Alcotest.failf "unexpected error %s: %s"
                  (P.error_code_to_string e.P.code)
                  e.P.message
              | _ -> ()));
            if Hashtbl.length accepted + !busy = n then
              Serve.Server.Latch.release latch
          done;
          check_bool "some jobs were rejected busy" true (!busy >= 1);
          check_bool "some jobs were accepted" true
            (Hashtbl.length accepted >= 1);
          check_int "the held job and the queued job were accepted" 2
            (Hashtbl.length accepted);
          check_int "every accepted job completed (none lost)"
            (Hashtbl.length accepted) (Hashtbl.length finished);
          check_int "accepted + rejected = sent" n
            (Hashtbl.length accepted + !busy)))

(* --- graceful drain --- *)

let test_shutdown_drains () =
  let latch = Serve.Server.Latch.create () in
  with_server ~domains:1 ~latch (fun server path ->
      let a = Serve.Client.connect (`Unix path) in
      let witness = Serve.Client.connect (`Unix path) in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close a;
          Serve.Client.close witness)
        (fun () ->
          (* A backlog held at the latch keeps the single worker busy
             across the drain: the worker holds the first job and the
             rest wait in the queue until the checks below are done. *)
          let backlog = 4 in
          for id = 1 to backlog do
            ignore (Serve.Client.send ~id a (quick_run ()))
          done;
          let accepted = Hashtbl.create 4
          and results = Hashtbl.create 4
          and finished = Hashtbl.create 4 in
          let read_a () =
            match Serve.Client.read_typed a with
            | Error e -> Alcotest.failf "client A stream: %s" e
            | Ok (id, frame) -> (
              let id = response_id id in
              match frame with
              | P.Accepted _ -> Hashtbl.replace accepted id ()
              | P.Result _ -> Hashtbl.replace results id ()
              | P.Done _ -> Hashtbl.replace finished id ()
              | P.Error e -> Alcotest.failf "job %d: %s" id e.P.message
              | _ -> ())
          in
          while Hashtbl.length accepted < backlog do
            read_a ()
          done;
          Serve.Server.Latch.await_arrivals latch 1;
          (* Shutdown acks, then the daemon refuses new work... *)
          with_client path (fun b ->
              let frames = frames_exn (Serve.Client.request b P.Shutdown) in
              check_bool "shutdown acked" true (has_done frames));
          check_bool "server reports draining" true (Serve.Server.draining server);
          (* Stats stays observable while draining (control plane)... *)
          (match Serve.Client.request witness P.Stats with
          | Ok frames -> check_bool "stats while draining" true (has_done frames)
          | Error e -> Alcotest.failf "witness stream error: %s" e);
          (* ... but new jobs are refused. *)
          (match
             Serve.Client.request witness
               (P.Run
                  { P.workload = P.Table3 8; level = Core.Level.L1;
                    mode = `Serial; estimate = true; profile = false;
                    compiled = false })
           with
          | Ok frames -> (
            match find_error frames with
            | Some e ->
              check_bool "new work refused as draining" true
                (e.P.code = P.Draining)
            | None -> Alcotest.fail "expected a draining error")
          | Error e -> Alcotest.failf "witness stream error: %s" e);
          (* ... but the accepted jobs still run to completion. *)
          Serve.Server.Latch.release latch;
          while Hashtbl.length finished < backlog do
            read_a ()
          done;
          check_int "in-flight jobs completed" backlog
            (Hashtbl.length finished);
          check_int "in-flight jobs have their results" backlog
            (Hashtbl.length results)))

let test_sigint_drains () =
  let path = temp_socket () in
  let server =
    Serve.Server.create ~unix_path:path ~domains:1 ~handle_signals:true ()
  in
  let thread = Thread.create Serve.Server.serve server in
  let c = Serve.Client.connect (`Unix path) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Client.close c;
      Serve.Server.drain server;
      Thread.join thread;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      ignore
        (Serve.Client.send c
           (P.Run
              { P.workload = P.Table3 300; level = Core.Level.Rtl;
                mode = `Serial; estimate = true; profile = false;
                compiled = false }));
      (match Serve.Client.read_typed c with
      | Ok (_, P.Accepted _) -> ()
      | _ -> Alcotest.fail "job not accepted");
      Unix.kill (Unix.getpid ()) Sys.sigint;
      (* The signal initiates a drain: the accepted job finishes, serve
         returns, and the socket file disappears. *)
      let frames = frames_exn (Serve.Client.collect c) in
      check_bool "job survived the signal" true (find_result frames <> None);
      Thread.join thread;
      check_bool "socket unlinked on exit" true (not (Sys.file_exists path)))

(* --- jobq unit tests --- *)

let test_jobq () =
  let q = Serve.Jobq.create ~capacity:2 in
  check_bool "push 1" true
    (Serve.Jobq.push q ~client:1 1 = Serve.Jobq.Enqueued 1);
  check_bool "push 2" true
    (Serve.Jobq.push q ~client:1 2 = Serve.Jobq.Enqueued 2);
  check_bool "push to full queue" true
    (Serve.Jobq.push q ~client:2 3 = Serve.Jobq.Full);
  check_bool "pop 1" true (Serve.Jobq.pop q = Some 1);
  Serve.Jobq.drain q;
  check_bool "push while draining" true
    (Serve.Jobq.push q ~client:1 4 = Serve.Jobq.Draining);
  (* Accepted items survive the drain... *)
  check_bool "drained pop yields accepted item" true (Serve.Jobq.pop q = Some 2);
  (* ... and only then does the queue report empty. *)
  check_bool "then signals exhaustion" true (Serve.Jobq.pop q = None)

(* [Serve.Jobq] against a model: per-client FIFOs in round-robin order
   (the head of [rotation] is the cursor), the capacity and the draining
   flag.  Every push result, every depth and every popped item must
   match. *)
type jobq_model = {
  rotation : (int * int list) list;  (* clients with pending jobs *)
  size : int;
  capacity : int;
  draining : bool;
}

let model_push m ~client job =
  if m.draining then (m, Serve.Jobq.Draining)
  else if m.size >= m.capacity then (m, Serve.Jobq.Full)
  else
    let rotation =
      if List.mem_assoc client m.rotation then
        List.map
          (fun (c, jobs) ->
            if c = client then (c, jobs @ [ job ]) else (c, jobs))
          m.rotation
      else m.rotation @ [ (client, [ job ]) ]
    in
    ({ m with rotation; size = m.size + 1 }, Serve.Jobq.Enqueued (m.size + 1))

let model_pop m =
  match m.rotation with
  | [] -> (m, None)
  | (c, job :: rest) :: others ->
    let rotation = if rest = [] then others else others @ [ (c, rest) ] in
    ({ m with rotation; size = m.size - 1 }, Some job)
  | (_, []) :: _ -> invalid_arg "model_pop: empty client queue"

(* A capacity and a command script.  [pop] blocks on an empty queue, so
   the generator tracks the model's depth and draining flag and offers a
   pop only when the queue holds a job or is draining. *)
let gen_jobq_script =
  let open QCheck.Gen in
  let rec script n ~capacity ~size ~draining acc =
    if n = 0 then return (List.rev acc)
    else
      let* cmd =
        frequency
          ([ (8, map (fun c -> `Push c) (int_bound 3)); (1, return `Drain) ]
          @ if size > 0 || draining then [ (6, return `Pop) ] else [])
      in
      let size, draining =
        match cmd with
        | `Push _ when draining || size >= capacity -> (size, draining)
        | `Push _ -> (size + 1, draining)
        | `Pop -> (max 0 (size - 1), draining)
        | `Drain -> (size, true)
      in
      script (n - 1) ~capacity ~size ~draining (cmd :: acc)
  in
  let* capacity = int_range 1 5 and* n = int_range 1 60 in
  let* cmds = script n ~capacity ~size:0 ~draining:false [] in
  return (capacity, cmds)

let prop_jobq_model =
  let print (capacity, cmds) =
    Printf.sprintf "capacity %d: %s" capacity
      (String.concat " "
         (List.map
            (function
              | `Push c -> Printf.sprintf "push(%d)" c
              | `Pop -> "pop"
              | `Drain -> "drain")
            cmds))
  in
  QCheck.Test.make ~name:"jobq = per-client round-robin model" ~count:300
    (QCheck.make ~print gen_jobq_script)
    (fun (capacity, cmds) ->
      let q = Serve.Jobq.create ~capacity in
      let step (m, next) cmd =
        let m, ok =
          match cmd with
          | `Push client ->
            let m, expected = model_push m ~client next in
            (m, Serve.Jobq.push q ~client next = expected)
          | `Pop ->
            (* Never block: the script only pops a queue that has a job
               or drains, so a real queue that would block has diverged. *)
            if Serve.Jobq.depth q = 0 && not (Serve.Jobq.draining q) then
              (m, false)
            else
              let m, expected = model_pop m in
              (m, Serve.Jobq.pop q = expected)
          | `Drain ->
            Serve.Jobq.drain q;
            ({ m with draining = true }, Serve.Jobq.draining q)
        in
        if not (ok && Serve.Jobq.depth q = m.size) then
          QCheck.Test.fail_reportf "diverged at %s, model depth %d, queue %d"
            (print (capacity, [ cmd ]))
            m.size (Serve.Jobq.depth q);
        (m, next + 1)
      in
      ignore
        (List.fold_left step
           ({ rotation = []; size = 0; capacity; draining = false }, 0)
           cmds);
      true)

let test_jobq_round_robin () =
  (* Client 10 piles up a backlog before clients 20 and 30 arrive with a
     job each: dequeue must interleave the clients rather than drain
     10's backlog first. *)
  let q = Serve.Jobq.create ~capacity:16 in
  let push client job =
    match Serve.Jobq.push q ~client job with
    | Serve.Jobq.Enqueued _ -> ()
    | Serve.Jobq.Full | Serve.Jobq.Draining -> Alcotest.fail "push refused"
  in
  List.iter (push 10) [ "a1"; "a2"; "a3" ];
  push 20 "b1";
  push 30 "c1";
  push 20 "b2";
  let order =
    List.init 6 (fun _ ->
        match Serve.Jobq.pop q with
        | Some j -> j
        | None -> Alcotest.fail "queue exhausted early")
  in
  check_bool "round-robin interleaves clients" true
    (order = [ "a1"; "b1"; "c1"; "a2"; "b2"; "a3" ]);
  (* An emptied client leaves the rotation entirely and re-enters at the
     tail on its next push. *)
  push 10 "a4";
  push 20 "b3";
  check_bool "fresh rotation after exhaustion" true
    (Serve.Jobq.pop q = Some "a4" && Serve.Jobq.pop q = Some "b3");
  (* A pop on an idle queue blocks for more work by design; only a
     draining queue reports exhaustion. *)
  Serve.Jobq.drain q;
  check_bool "exhausted once draining" true (Serve.Jobq.pop q = None)

(* --- telemetry plane (DESIGN.md section 16) --- *)

(* Reads [requests.<kind>.<field>] out of a telemetry snapshot. *)
let snapshot_kind_count snapshot ~kind ~field =
  match Obs.Json.member "requests" snapshot with
  | None -> -1
  | Some reqs -> (
    match Obs.Json.member kind reqs with
    | None -> 0
    | Some k ->
      Option.value ~default:(-1)
        (Option.bind (Obs.Json.member field k) Obs.Json.int_opt))

let find_metrics frames =
  List.find_map (function P.Metrics_reply m -> Some m | _ -> None) frames

let test_metrics_request () =
  with_server ~domains:1 (fun server path ->
      with_client path (fun c ->
          ignore (frames_exn (Serve.Client.request c (quick_run ())));
          let frames = frames_exn (Serve.Client.request c P.Metrics) in
          check_bool "terminated with done" true (has_done frames);
          match find_metrics frames with
          | None -> Alcotest.fail "no metrics frame"
          | Some m ->
            check_int "one-shot snapshot has seq 0" 0 m.P.metrics_seq;
            check_bool "rendered tables present" true
              (String.length m.P.metrics_rendered > 0);
            check_int "snapshot accounts the completed run" 1
              (snapshot_kind_count m.P.snapshot ~kind:"run" ~field:"completed");
            check_bool "span ring populated for post-drain export" true
              (Serve.Telemetry.spans_total (Serve.Server.telemetry server)
              >= 1)))

(* B/E spans balance per (tid) lane and never close an unopened span —
   the structural validity Perfetto demands of the streamed chunks. *)
let check_chrome_events events =
  let depth = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let ph =
        Option.bind (Obs.Json.member "ph" ev) Obs.Json.string_opt
        |> Option.value ~default:"?"
      in
      let tid =
        Option.bind (Obs.Json.member "tid" ev) Obs.Json.int_opt
        |> Option.value ~default:(-1)
      in
      let d = try Hashtbl.find depth tid with Not_found -> 0 in
      match ph with
      | "B" -> Hashtbl.replace depth tid (d + 1)
      | "E" ->
        check_bool "E only closes an open B" true (d > 0);
        Hashtbl.replace depth tid (d - 1)
      | _ -> ())
    events;
  Hashtbl.iter (fun _ d -> check_int "all spans closed" 0 d) depth

let test_subscribe_lifecycle () =
  with_server ~domains:2 (fun _server path ->
      let sub = Serve.Client.connect (`Unix path) in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close sub)
        (fun () ->
          (match
             Serve.Client.subscribe ~id:42 ~interval_ms:50 sub
               ~streams:[ `Metrics; `Trace ]
           with
          | Ok id -> check_int "subscribe id echoed" 42 id
          | Error e -> Alcotest.failf "subscribe failed: %s" e);
          (* Work arrives on a second connection while subscribed. *)
          with_client path (fun c ->
              for _ = 1 to 3 do
                ignore (frames_exn (Serve.Client.request c (quick_run ())))
              done);
          (* Snapshots tick until one accounts all three runs exactly —
             the streamed ledger reconciling with the client-observed
             count — and at least one chunk carries trace events. *)
          let metrics = ref [] and events = ref [] in
          let reconciled m =
            snapshot_kind_count m.P.snapshot ~kind:"run" ~field:"completed"
            = 3
          in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            (not (List.exists reconciled !metrics))
            || !events = []
            || List.length !metrics < 2
          do
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "subscription never reconciled";
            match Serve.Client.read_typed sub with
            | Ok (id, P.Metrics_reply m) ->
              check_bool "stream frame tagged with subscribe id" true
                (id = Obs.Json.Int 42);
              metrics := m :: !metrics
            | Ok (_, P.Trace_chunk tc) ->
              check_int "no ring overwrites at this volume" 0
                tc.P.trace_missed;
              events := !events @ tc.P.trace_events
            | Ok _ -> ()
            | Error e -> Alcotest.failf "subscriber stream: %s" e
          done;
          (* Sequence numbers count up from 0 without gaps. *)
          List.iteri
            (fun i (m : P.metrics_body) -> check_int "metrics seq" i m.P.metrics_seq)
            (List.rev !metrics);
          check_bool "several snapshots at the 50 ms cadence" true
            (List.length !metrics >= 2);
          (* Chunked Chrome events concatenate into a valid document:
             metadata first chunk, worker-lane B/E pairs balanced. *)
          check_bool "metadata names the lanes" true
            (List.exists
               (fun ev ->
                 Option.bind (Obs.Json.member "ph" ev) Obs.Json.string_opt
                 = Some "M")
               !events);
          check_chrome_events !events;
          (* Unsubscribe acks and the stream goes quiet: at most the one
             tick already in flight may trail the ack. *)
          (match Serve.Client.unsubscribe sub with
          | Ok () -> ()
          | Error e -> Alcotest.failf "unsubscribe failed: %s" e);
          (* A tick still in flight lands within the wait, so it reads
             ahead of the next reply: the client reads only through its
             buffered reader, never by polling the descriptor. *)
          Thread.delay 0.15;
          (* The connection stays aligned for ordinary requests. *)
          let frames = frames_exn (Serve.Client.request sub P.Stats) in
          let trailing =
            List.filter
              (function P.Metrics_reply _ | P.Trace_chunk _ -> true | _ -> false)
              frames
          in
          check_bool "bounded trailing frames" true (List.length trailing < 3);
          check_bool "only stream frames trail the ack" true
            (List.for_all
               (function
                 | P.Metrics_reply _ | P.Trace_chunk _ | P.Stats_reply _
                 | P.Done _ ->
                   true
                 | _ -> false)
               frames);
          check_bool "stats after unsubscribe" true (has_done frames)))

let test_subscriber_disconnect () =
  with_server ~domains:2 (fun _server path ->
      (* A subscriber that vanishes cold (no unsubscribe, no handshake)
         must cost the daemon nothing: the ticker drops it and the
         workers never notice. *)
      let sub = Serve.Client.connect (`Unix path) in
      (match
         Serve.Client.subscribe ~interval_ms:20 sub
           ~streams:[ `Metrics; `Trace; `Energy ]
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "subscribe failed: %s" e);
      (* Let at least one tick flow so the death happens mid-stream. *)
      (match Serve.Client.read_typed sub with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "first stream frame: %s" e);
      Serve.Client.close sub;
      with_client path (fun c ->
          for _ = 1 to 3 do
            check_bool "request completes after subscriber death" true
              (has_done (frames_exn (Serve.Client.request c (quick_run ()))))
          done;
          (* A couple of ticker periods later the daemon is still fully
             responsive — the dead subscriber cost at most one failed
             write. *)
          Thread.delay 0.1;
          let frames = frames_exn (Serve.Client.request c P.Stats) in
          check_bool "stats after subscriber death" true (has_done frames)))

let test_telemetry_reconciles_concurrent () =
  (* 8 clients, 3 requests each, then one fresh connection reads the
     daemon's ledger: every accepted job must be accounted completed,
     and the per-client rows must sum to the same total. *)
  with_server ~domains:4 (fun _server path ->
      let n = 8 and per_client = 3 in
      let errors = Array.make n None in
      let worker i =
        try
          let c = Serve.Client.connect (`Unix path) in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              for _ = 1 to per_client do
                let frames =
                  frames_exn
                    (Serve.Client.request_retrying c (quick_run ~n:(8 + i) ()))
                in
                if not (has_done frames) then failwith "no done frame"
              done)
        with e -> errors.(i) <- Some (Printexc.to_string e)
      in
      let threads = List.init n (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Array.iter
        (function
          | Some e -> Alcotest.failf "client thread failed: %s" e
          | None -> ())
        errors;
      with_client path (fun c ->
          let frames = frames_exn (Serve.Client.request c P.Metrics) in
          match find_metrics frames with
          | None -> Alcotest.fail "no metrics frame"
          | Some m ->
            check_int "every run accounted completed" (n * per_client)
              (snapshot_kind_count m.P.snapshot ~kind:"run" ~field:"completed");
            check_int "nothing failed" 0
              (snapshot_kind_count m.P.snapshot ~kind:"run" ~field:"failed");
            (* The per-client ledger sums to the same total. *)
            let client_sum =
              match Obs.Json.member "clients" m.P.snapshot with
              | Some (Obs.Json.Obj clients) ->
                List.fold_left
                  (fun acc (_, cl) ->
                    acc
                    + Option.value ~default:0
                        (Option.bind
                           (Obs.Json.member "completed" cl)
                           Obs.Json.int_opt))
                  0 clients
              | Some _ | None -> -1
            in
            check_int "per-client rows sum to the total" (n * per_client)
              client_sum))

let test_round_robin_wire_fairness () =
  (* One worker and the latch closed: client A pipelines a backlog, the
     worker holds A's first job, then client B sends one job.  With
     per-client round-robin the worker serves A1, A2, then B's job, so
     after three admissions B's stream carries its [done] ahead of the
     reply to a [stats] request sent once the fourth job is held, and
     that reply shows A's backlog still queued.  A FIFO would serve B
     last: its [done] would not be there yet. *)
  let latch = Serve.Server.Latch.create () in
  with_server ~domains:1 ~queue_depth:32 ~latch (fun _server path ->
      let a = Serve.Client.connect (`Unix path) in
      let b = Serve.Client.connect (`Unix path) in
      Fun.protect
        ~finally:(fun () ->
          Serve.Client.close a;
          Serve.Client.close b)
        (fun () ->
          let n = 5 in
          for id = 1 to n do
            ignore (Serve.Client.send ~id a (quick_run ()))
          done;
          let accepted = ref 0 and dones = ref 0 in
          let a_err = ref None in
          let a_thread =
            Thread.create
              (fun () ->
                while !dones < n && !a_err = None do
                  match Serve.Client.read_typed a with
                  | Ok (_, P.Accepted _) -> incr accepted
                  | Ok (_, P.Done _) -> incr dones
                  | Ok (_, P.Error e) -> a_err := Some e.P.message
                  | Ok _ -> ()
                  | Error e -> a_err := Some e
                done)
              ()
          in
          (* Wait until A's backlog is actually enqueued. *)
          while !accepted < n && !a_err = None do
            Thread.delay 0.001
          done;
          Serve.Server.Latch.await_arrivals latch 1;
          let b_job = 100 and b_stats = 101 in
          ignore (Serve.Client.send ~id:b_job b (quick_run ()));
          (match Serve.Client.read_typed b with
          | Ok (_, P.Accepted _) -> ()
          | Ok _ | Error _ -> Alcotest.fail "b's job not accepted");
          Serve.Server.Latch.admit latch 3;
          Serve.Server.Latch.await_arrivals latch 4;
          ignore (Serve.Client.send ~id:b_stats b P.Stats);
          (* B's frames in arrival order, up to the stats terminator. *)
          let rec read_b acc =
            match Serve.Client.read_typed b with
            | Error e -> Alcotest.failf "client B stream: %s" e
            | Ok (id, frame) ->
              let id = response_id id in
              let acc = (id, frame) :: acc in
              if id = b_stats && frame_is_done frame then List.rev acc
              else read_b acc
          in
          let b_frames = read_b [] in
          let frames =
            List.filter_map
              (fun (id, f) -> if id = b_job then Some f else None)
              b_frames
          in
          check_bool "b finished" true (has_done frames);
          let before_stats =
            List.find_map
              (function
                | id, P.Done _ when id = b_job -> Some true
                | _, P.Stats_reply _ -> Some false
                | _ -> None)
              b_frames
            = Some true
          in
          let queued =
            List.find_map
              (function
                | _, P.Stats_reply s -> Some s.P.queue_depth | _ -> None)
              b_frames
          in
          check_bool
            "round-robin served the newcomer before the backlog drained"
            true
            (before_stats && queued = Some 2);
          Serve.Server.Latch.release latch;
          Thread.join a_thread;
          match !a_err with
          | Some e -> Alcotest.failf "client A stream: %s" e
          | None -> check_int "a finished" n !dones))

(* --- frame codecs (property) --- *)

(* Every frame constructor, each optional member both present and
   absent, with arbitrary finite floats and strings that need escaping. *)
let gen_frame =
  let open QCheck.Gen in
  let small = int_bound 10_000 in
  let text =
    string_size ~gen:(oneofl [ 'a'; 'z'; '0'; ' '; '"'; '\\'; '\n'; '\t' ])
      (int_bound 8)
  in
  let finite =
    map (fun f -> if Float.is_finite f then f else 0.5) QCheck.Gen.float
  in
  let level = oneofl Core.Level.[ Rtl; L1; L2; L3 ] in
  let stream = oneofl [ `Metrics; `Trace; `Energy ] in
  let json =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) small;
        map (fun f -> Obs.Json.Float f) finite;
        map (fun s -> Obs.Json.String s) text;
        map
          (fun kvs -> Obs.Json.Obj kvs)
          (list_size (int_bound 4)
             (pair text (map (fun i -> Obs.Json.Int i) small)));
      ]
  in
  let pool =
    let* session_hits = small and* session_builds = small in
    let* plan_hits = small and* plan_builds = small in
    return { P.session_hits; session_builds; plan_hits; plan_builds }
  in
  oneof
    [
      map (fun d -> P.Accepted d) small;
      (let* level = level and* cycles = small and* txns = small in
       let* beats = small and* errors = small and* bus_pj = finite in
       let* component_pj = finite and* transitions = small in
       let* wall_seconds = finite in
       return
         (P.Result
            { P.level; cycles; txns; beats; errors; bus_pj; component_pj;
              transitions; wall_seconds }));
      (let* seq = small and* config = text and* applet = text in
       let* row_level = level and* row_cycles = small in
       let* row_bus_pj = finite in
       let* transactions = small and* steps = small in
       let* value = opt (int_range (-100) 100) and* correct = bool in
       let* switches = opt small and* error_bound_pj = opt finite in
       return
         (P.Row
            ( seq,
              { P.config; applet; row_level; row_cycles; row_bus_pj;
                transactions; steps; value; correct; switches;
                error_bound_pj } )));
      (let* point_seq = small and* scale = finite and* point_bus_pj = finite in
       let* point_cycles = small and* point_txns = small in
       let* point_transitions = small in
       let* point_buckets = opt (list_size (int_bound 4) finite) in
       return
         (P.Point
            { P.point_seq; scale; point_bus_pj; point_cycles; point_txns;
              point_transitions; point_buckets }));
      map2 (fun seq lines -> P.Energy (seq, lines)) small
        (list_size (int_bound 4) text);
      (let* queue_depth = small and* queue_capacity = small in
       let* stats_draining = bool and* uptime_s = finite in
       let* accepted = small and* rejected = small and* completed = small in
       let* failed = small and* spans_dropped = small in
       let* workers =
         list_size (int_bound 3)
           (map2 (fun worker jobs -> { P.worker; jobs }) small small)
       in
       let* pool = pool and* rendered = text in
       return
         (P.Stats_reply
            { P.queue_depth; queue_capacity; stats_draining; uptime_s;
              accepted; rejected; completed; failed; spans_dropped; workers;
              pool; rendered }));
      map3
        (fun metrics_seq snapshot metrics_rendered ->
          P.Metrics_reply { P.metrics_seq; snapshot; metrics_rendered })
        small json text;
      map3
        (fun trace_seq trace_events trace_missed ->
          P.Trace_chunk { P.trace_seq; trace_events; trace_missed })
        small (list_size (int_bound 5) json) small;
      map2
        (fun sub_streams sub_interval_ms ->
          P.Subscribed { P.sub_streams; sub_interval_ms })
        (list_size (int_range 1 3) stream)
        small;
      map3
        (fun code message retry_after_ms ->
          P.Error { P.code; message; retry_after_ms })
        (oneofl
           P.[ Bad_frame; Oversized; Bad_json; Bad_request; Unknown_type;
               Busy; Draining; Failed ])
        text (opt small);
      (let* frames = small and* latency_ms = finite in
       let* done_worker = small and* done_pool = pool in
       return (P.Done { P.frames; latency_ms; done_worker; done_pool }));
    ]

(* Through the printed bytes and back, as a frame crosses the socket. *)
let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frames round-trip the wire codec" ~count:1000
    (QCheck.make gen_frame)
    (fun frame ->
      let doc = P.frame_to_json ~id:(Obs.Json.Int 9) frame in
      let text = Obs.Json.to_string doc in
      match Result.bind (Obs.Json.of_string text) P.frame_of_json with
      | Ok (id, frame') ->
        (id = Obs.Json.Int 9 && frame = frame')
        || QCheck.Test.fail_reportf "decoded differently: %s" text
      | Error e -> QCheck.Test.fail_reportf "does not decode: %s (%s)" e text)

(* An optional member that is absent or null decodes to [None]; one that
   is present with the wrong type is a decode error, not [None]. *)
let test_frame_optional_members () =
  let decodes text =
    match Obs.Json.of_string text with
    | Error e -> Alcotest.failf "bad test document %s: %s" text e
    | Ok doc -> P.frame_of_json doc
  in
  let row extra =
    Printf.sprintf
      {|{"frame":"row","seq":1,"row":{"config":"c","applet":"a","level":"l1","cycles":1,"bus_pj":2,"transactions":3,"steps":4,"correct":true%s}}|}
      extra
  in
  let error extra =
    Printf.sprintf {|{"frame":"error","code":"busy","message":"m"%s}|} extra
  in
  let point extra =
    Printf.sprintf
      {|{"frame":"point","seq":0,"scale":1,"bus_pj":2,"cycles":3,"txns":4,"transitions":5%s}|}
      extra
  in
  (match decodes (row "") with
  | Ok (_, P.Row (_, r)) ->
    check_bool "absent row members are None" true
      (r.P.value = None && r.P.switches = None && r.P.error_bound_pj = None)
  | _ -> Alcotest.fail "row without optional members");
  let nulls = {|,"value":null,"switches":null,"error_bound_pj":null|} in
  (match decodes (row nulls) with
  | Ok (_, P.Row (_, r)) ->
    check_bool "null row members are None" true
      (r.P.value = None && r.P.switches = None && r.P.error_bound_pj = None)
  | _ -> Alcotest.fail "row with null optional members");
  (match decodes (error {|,"retry_after_ms":null|}) with
  | Ok (_, P.Error e) ->
    check_bool "null retry_after_ms is None" true (e.P.retry_after_ms = None)
  | _ -> Alcotest.fail "error with null retry_after_ms");
  List.iter
    (fun text ->
      match decodes text with
      | Ok _ -> Alcotest.failf "ill-typed member decoded: %s" text
      | Error _ -> ())
    [
      row {|,"value":"7"|};
      row {|,"value":1.5|};
      row {|,"switches":true|};
      row {|,"error_bound_pj":"x"|};
      error {|,"retry_after_ms":"x"|};
      point {|,"buckets":null|};
      point {|,"buckets":[1,"x"]|};
    ]

(* Once the daemon has drained and closed the connection, every client
   call on the still-open handle answers [Error]; none raises the
   EPIPE/ECONNRESET of the dead socket. *)
let test_closed_connection_is_error () =
  let path = temp_socket () in
  let server = Serve.Server.create ~unix_path:path ~domains:1 () in
  let thread = Thread.create Serve.Server.serve server in
  let c = Serve.Client.connect (`Unix path) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Client.close c;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      check_bool "live before the drain" true
        (has_done (frames_exn (Serve.Client.request c P.Stats)));
      Serve.Server.drain server;
      Thread.join thread;
      let is_error name f =
        match f () with
        | Ok _ -> Alcotest.failf "%s answered on a closed connection" name
        | Error _ -> ()
        | exception e ->
          Alcotest.failf "%s raised %s" name (Printexc.to_string e)
      in
      (* Twice: the first write may still land in the socket buffer and
         fail on the read, the second meets the closed peer. *)
      for _ = 1 to 2 do
        is_error "request" (fun () -> Serve.Client.request c (quick_run ()))
      done;
      is_error "request_retrying" (fun () ->
          Serve.Client.request_retrying c (quick_run ()));
      is_error "subscribe" (fun () ->
          Serve.Client.subscribe c ~streams:[ `Metrics ]);
      is_error "unsubscribe" (fun () -> Serve.Client.unsubscribe c))

let suite =
  [
    Alcotest.test_case "framing round-trip and resync" `Quick
      test_framing_roundtrip;
    Alcotest.test_case "framing read honours stop on receive timeout" `Quick
      test_framing_stop;
    Alcotest.test_case "request codec and validation" `Quick test_request_codec;
    Alcotest.test_case "jobq bounded/drain semantics" `Quick test_jobq;
    Alcotest.test_case "jobq per-client round-robin" `Quick
      test_jobq_round_robin;
    QCheck_alcotest.to_alcotest prop_frame_roundtrip;
    Alcotest.test_case "malformed frames get error frames" `Quick
      test_malformed_frames;
    Alcotest.test_case "failed error does not desync the stream" `Quick
      test_failed_error_keeps_stream_aligned;
    Alcotest.test_case "run bit-exact over the wire" `Quick test_run_bit_exact;
    Alcotest.test_case "profile streams as jsonl chunks" `Quick
      test_profile_stream;
    Alcotest.test_case "replay points bit-exact" `Quick test_replay_bit_exact;
    Alcotest.test_case "fabric replay buckets bit-exact" `Quick
      test_fabric_replay_bit_exact;
    Alcotest.test_case "explore rows bit-exact" `Quick test_explore_bit_exact;
    Alcotest.test_case "stats and plan-memo hit" `Quick
      (test_stats_and_plan_memo ~domains:1);
    Alcotest.test_case "8 concurrent clients bit-exact" `Quick
      test_concurrent_clients_bit_exact;
    Alcotest.test_case "backpressure: busy with retry_after" `Quick
      test_backpressure;
    Alcotest.test_case "shutdown drains in-flight work" `Quick
      test_shutdown_drains;
    Alcotest.test_case "SIGINT drains gracefully" `Quick test_sigint_drains;
    Alcotest.test_case "one-shot metrics request" `Quick test_metrics_request;
    Alcotest.test_case "subscribe/unsubscribe lifecycle" `Quick
      test_subscribe_lifecycle;
    Alcotest.test_case "subscriber disconnect never stalls workers" `Quick
      test_subscriber_disconnect;
    Alcotest.test_case "telemetry reconciles under 8 clients" `Quick
      test_telemetry_reconciles_concurrent;
    Alcotest.test_case "round-robin fairness over the wire" `Quick
      test_round_robin_wire_fairness;
    Alcotest.test_case "explore at l3 answers a row" `Quick test_explore_l3_row;
    Alcotest.test_case "closed connection is an error, not a raise" `Quick
      test_closed_connection_is_error;
    Alcotest.test_case "frame optional members: absent, null or typed" `Quick
      test_frame_optional_members;
    Alcotest.test_case "framing: a frame written one byte at a time" `Quick
      test_framing_byte_at_a_time;
    Alcotest.test_case "framing: several frames in one write" `Quick
      test_framing_one_write;
    Alcotest.test_case "framing: oversized discard with the payload buffered"
      `Quick test_framing_oversized_buffered;
    Alcotest.test_case "framing: EOF is truncated mid-frame, closed on a boundary"
      `Quick test_framing_eof;
    Alcotest.test_case "framing: stopped with half a frame buffered" `Quick
      test_framing_stop_buffered;
    Alcotest.test_case "compiled run with estimation off = interpreted"
      `Quick test_run_estimate_off;
    Alcotest.test_case "rtl and l3 replays = direct runs per scale" `Quick
      test_replay_rtl_l3;
    QCheck_alcotest.to_alcotest prop_jobq_model;
    Alcotest.test_case "stats and plan-memo hit, two workers" `Quick
      (test_stats_and_plan_memo ~domains:2);
    Alcotest.test_case "l3 replays build one plan in both modes" `Quick
      test_l3_plan_ignores_mode;
    Alcotest.test_case "rtl and l1 fabric replays build one plan" `Quick
      test_fabric_replay_rtl_l1_one_plan;
  ]
