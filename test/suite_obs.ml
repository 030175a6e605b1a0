(* The instrumentation layer: event ordering, metrics reconciliation,
   Chrome trace well-formedness, and the contract that attaching a sink
   never changes what is simulated. *)

module Gen = QCheck.Gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let instrumented_run ?(level = Core.Level.L1) ?(mode = `Serial) ?(n = 128) () =
  let sink = Obs.Sink.create () in
  let trace = Core.Workloads.table3_trace ~n in
  let r = Core.Runner.run_trace ~level ~mode ~sink trace in
  (sink, r)

(* --- event ordering --- *)

(* issue <= grant <= beats <= finish per transaction id, and ids are
   unique per lifecycle on the zero-gap stimulus (ids recycle only after
   the finish, which the monotone check tolerates by keeping the last
   occurrence). *)
let lifecycle_ordered events =
  let tbl = Hashtbl.create 64 in
  let slot id = try Hashtbl.find tbl id with Not_found -> (-1, -1, -1) in
  List.for_all
    (fun (e : Obs.Event.t) ->
      let issue, grant, finish = slot e.id in
      match e.kind with
      | Obs.Event.Txn_issued ->
        Hashtbl.replace tbl e.id (e.cycle, -1, -1);
        (* A new lifecycle may only start after the previous finished. *)
        issue < 0 || finish >= 0
      | Obs.Event.Txn_granted ->
        Hashtbl.replace tbl e.id (issue, e.cycle, finish);
        issue >= 0 && issue <= e.cycle
      | Obs.Event.Data_beat -> grant >= 0 && grant <= e.cycle
      | Obs.Event.Txn_finished | Obs.Event.Txn_error ->
        Hashtbl.replace tbl e.id (issue, grant, e.cycle);
        issue >= 0 && grant >= 0 && grant <= e.cycle
      | _ -> true)
    events

let test_event_ordering () =
  List.iter
    (fun level ->
      let sink, _ = instrumented_run ~level ~n:96 () in
      check_bool
        (Core.Level.to_string level ^ " lifecycle ordered")
        true
        (lifecycle_ordered (Obs.Sink.events sink)))
    Core.Level.timed

let prop_event_ordering =
  QCheck.Test.make ~name:"issue <= grant <= finish on random traffic"
    ~count:25
    QCheck.(int_range 1 80)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let trace = Core.Workloads.random_trace ~rng ~n:40 () in
      let sink = Obs.Sink.create () in
      ignore
        (Core.Runner.run_trace ~level:Core.Level.L1 ~mode:`Pipelined ~sink
           trace);
      lifecycle_ordered (Obs.Sink.events sink))

(* --- JSON print/parse round-trip --- *)

(* Strings assembled from fragments that stress every escape path:
   quotes, backslashes, the named escapes, raw control bytes, DEL,
   non-ASCII bytes and the solidus. *)
let gen_json_string =
  Gen.(
    map (String.concat "")
      (list_size (int_bound 6)
         (oneofl
            [ "a"; "key"; " "; "\""; "\\"; "\\u"; "/"; "\n"; "\r"; "\t";
              "\b"; "\012"; "\x00"; "\x01"; "\x1f"; "\x7f"; "\xc3\xa9";
              "\xff"; "{}[]:,"; "0" ])))

(* NaN/inf are deliberately excluded: the printer folds them to [null]
   by design, which no round-trip can survive. *)
let gen_json_float =
  Gen.(
    oneof
      [
        oneofl
          [ 0.0; -0.0; 1.0; -1.0; 0.5; -2.5; 0.1; 1e-300; 5e-324;
            max_float; -.max_float; min_float; epsilon_float;
            (* the %.17g-prints-as-digits danger window *)
            1e15; 1e15 -. 2.0; 1e15 +. 2.0; 2e15; 9007199254740992.0;
            9007199254740993e1; 1e16; 1e16 +. 4.0; 1e17 -. 16.0; 1e17;
            123456789012345.5; -2.5e15; 1e18; -3e16 ];
        float_bound_exclusive 1.0;
        map Float.round (float_bound_exclusive 1e17);
        map (fun f -> -.f) (map Float.round (float_bound_exclusive 1e17));
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_nan f || f = infinity || f = neg_infinity then 0.0
            else f)
          (map Int64.of_int int);
      ])

let rec gen_json ~floats depth =
  let open Gen in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) (oneof [ int; oneofl [ max_int; min_int; 0; -1 ] ]);
        map (fun f -> Obs.Json.Float f) floats;
        map (fun s -> Obs.Json.String s) gen_json_string;
      ]
  in
  if depth = 0 then scalar
  else
    frequency
      [
        (3, scalar);
        ( 1,
          map
            (fun l -> Obs.Json.List l)
            (list_size (int_bound 4) (gen_json ~floats (depth - 1))) );
        ( 1,
          map
            (fun kvs -> Obs.Json.Obj kvs)
            (list_size (int_bound 4)
               (pair gen_json_string (gen_json ~floats (depth - 1)))) );
      ]

let gen_json_value = gen_json ~floats:gen_json_float

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json print/parse round-trip (bit-exact)" ~count:2000
    (QCheck.make (gen_json_value 3) ~print:Obs.Json.to_string)
    (fun doc ->
      match Obs.Json.of_string (Obs.Json.to_string doc) with
      | Error e -> QCheck.Test.fail_reportf "does not parse back: %s" e
      | Ok doc' ->
        Obs.Json.equal doc doc'
        || QCheck.Test.fail_reportf "parsed back as %s"
             (Obs.Json.to_string doc'))

(* --- the codec against its old implementation (Json_oracle) --- *)

let prop_json_printer_oracle =
  QCheck.Test.make ~name:"Json printer = old printer, byte for byte" ~count:2000
    (QCheck.make
       (gen_json 3
          ~floats:
            Gen.(oneof [ gen_json_float; oneofl [ nan; -.nan; infinity; neg_infinity ] ]))
       ~print:Json_oracle.to_string)
    (fun doc -> String.equal (Obs.Json.to_string doc) (Json_oracle.to_string doc))

(* Texts for the parsers: printed documents, printed documents with a
   few bytes inserted, deleted or replaced, number-like lexemes and
   strings of [\u] escapes. *)
let gen_json_text =
  let open Gen in
  let fragment =
    oneofl
      [ "+"; "-"; "."; "0"; "01"; "1."; ".5"; "e"; "E+"; "\""; "\\"; "\\u";
        "\\ud83d"; "\\ude00"; "\\u00e9"; ","; "]"; "}"; "["; "{"; ":"; " ";
        "\t"; "null"; "tru"; "x"; "\x00"; "\xff" ]
  in
  let mutate text =
    map3
      (fun op at frag ->
        let n = String.length text in
        let at = if n = 0 then 0 else at mod (n + 1) in
        let before = String.sub text 0 at in
        let after k = String.sub text (min n (at + k)) (n - min n (at + k)) in
        match op with
        | 0 -> before ^ frag ^ after 0
        | 1 -> before ^ after 1
        | _ -> before ^ frag ^ after 1)
      (int_bound 2) nat fragment
  in
  let rec mutations k text = if k = 0 then return text else mutate text >>= mutations (k - 1) in
  let lexeme =
    map (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 6) (oneofl (List.of_seq (String.to_seq "0123456789+-.eE"))))
  in
  let in_context =
    map2
      (fun wrap x -> match wrap with 0 -> x | 1 -> "[" ^ x ^ "]" | 2 -> "{\"k\":" ^ x ^ "}" | _ -> "[" ^ x ^ ",1]")
      (int_bound 3)
  in
  let escapes =
    map
      (fun parts -> "\"" ^ String.concat "" parts ^ "\"")
      (list_size (int_range 1 4)
         (oneofl
            [ "\\u"; "d83d"; "DE00"; "\\ud83d"; "\\ude00"; "\\uD800"; "\\udbff\\udfff";
              "\\u0041"; "\\u00e9"; "\\uffff"; "x"; "\\\\"; "\\n" ]))
  in
  let printed = map Obs.Json.to_string (gen_json_value 3) in
  frequency
    [
      (2, printed);
      (4, pair (int_range 1 3) printed >>= fun (k, text) -> mutations k text);
      (2, in_context lexeme);
      (1, in_context escapes);
    ]

(* What the old lexer read as a number: outside strings, a maximal run
   of [0-9+-.eE] that does not continue a word (the [e] of [true]). *)
let number_lexemes text =
  let n = String.length text in
  let num c = String.contains "0123456789+-.eE" c in
  let after_letter i =
    i > 0 && Char.lowercase_ascii text.[i - 1] >= 'a'
    && Char.lowercase_ascii text.[i - 1] <= 'z'
  in
  let rec outside i acc =
    if i >= n then acc
    else if text.[i] = '"' then inside (i + 1) acc
    else if num text.[i] && not (after_letter i) then begin
      let j = ref i in
      while !j < n && num text.[!j] do incr j done;
      outside !j (String.sub text i (!j - i) :: acc)
    end
    else outside (i + 1) acc
  and inside i acc =
    if i >= n then acc
    else if text.[i] = '\\' then inside (i + 2) acc
    else if text.[i] = '"' then outside (i + 1) acc
    else inside (i + 1) acc
  in
  outside 0 []

(* RFC 8259: -?(0|[1-9][0-9]* )(\.[0-9]+)?([eE][+-]?[0-9]+)? *)
let rfc_number s =
  let n = String.length s in
  let digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let rec digits i = if digit i then digits (i + 1) else i in
  let i = if n > 0 && s.[0] = '-' then 1 else 0 in
  let i =
    if i < n && s.[i] = '0' then i + 1 else if digit i then digits i else -1
  in
  let i =
    if i >= 0 && i < n && s.[i] = '.' then if digit (i + 1) then digits (i + 1) else -1 else i
  in
  let i =
    if i >= 0 && i < n && (s.[i] = 'e' || s.[i] = 'E') then
      let j = if i + 1 < n && (s.[i + 1] = '+' || s.[i + 1] = '-') then i + 2 else i + 1 in
      if digit j then digits j else -1
    else i
  in
  i = n

(* A [\u] escape of a UTF-16 surrogate (D800-DFFF) inside a string. *)
let has_surrogate_escape text =
  let n = String.length text in
  let rec scan i in_string =
    if i >= n then false
    else if not in_string then scan (i + 1) (text.[i] = '"')
    else if text.[i] = '"' then scan (i + 1) false
    else if text.[i] = '\\' then
      (i + 3 < n && text.[i + 1] = 'u'
       && (text.[i + 2] = 'd' || text.[i + 2] = 'D')
       && String.contains "89abcdefABCDEF" text.[i + 3])
      || scan (i + 2) true
    else scan (i + 1) true
  in
  scan 0 false

let prop_json_parser_oracle =
  QCheck.Test.make ~name:"Json parser = old parser but for the two grammar fixes"
    ~count:5000
    (QCheck.make gen_json_text ~print:(Printf.sprintf "%S"))
    (fun text ->
      match (Obs.Json.of_string text, Json_oracle.of_string text) with
      | Ok v, Ok w ->
        Obs.Json.equal v w || has_surrogate_escape text
        || QCheck.Test.fail_reportf "%s, old parser %s" (Obs.Json.to_string v)
             (Obs.Json.to_string w)
      | Error _, Error _ -> true
      | Error e, Ok _ ->
        has_surrogate_escape text
        || List.exists (fun l -> not (rfc_number l)) (number_lexemes text)
        || QCheck.Test.fail_reportf "rejected (%s), the old parser accepted" e
      | Ok v, Error e ->
        QCheck.Test.fail_reportf "accepted as %s; the old parser: %s"
          (Obs.Json.to_string v) e)

let parses_to text expected =
  match Obs.Json.of_string text with
  | Ok v ->
    if not (Obs.Json.equal v expected) then
      Alcotest.failf "%S parsed as %s" text (Obs.Json.to_string v)
  | Error e -> Alcotest.failf "%S rejected: %s" text e

let rejected text =
  match Obs.Json.of_string text with
  | Ok v -> Alcotest.failf "%S accepted as %s" text (Obs.Json.to_string v)
  | Error _ -> ()

let test_json_strict_numbers () =
  (* The forms the old parser accepted and RFC 8259 refuses. *)
  List.iter
    (fun text ->
      check_bool ("old parser accepted " ^ text) true
        (Result.is_ok (Json_oracle.of_string text));
      rejected text)
    [ "+1"; "01"; "[01]"; "1."; ".5"; "-01"; "00"; "1.e5"; "-.5"; "+.5"; "[1.,2]"; "{\"a\":+0}" ];
  List.iter rejected [ "-"; "--1"; "1e"; "1e+"; "0x10"; "1_0"; "NaN"; "Infinity"; "-Infinity" ];
  List.iter
    (fun (text, v) -> parses_to text v)
    Obs.Json.
      [
        ("0", Int 0); ("-0", Int 0); ("[0,-1,10]", List [ Int 0; Int (-1); Int 10 ]);
        ("1.5", Float 1.5); ("-0.0", Float (-0.0)); ("0e0", Float 0.0); ("1e5", Float 1e5);
        ("1E+5", Float 1e5); ("2.5e-3", Float 2.5e-3); ("123456789012345678", Int 123456789012345678);
        ("1234567890123456789", Int 1234567890123456789);
        ("4611686018427387903", Int max_int); ("-4611686018427387904", Int min_int);
        ("4611686018427387904", Float 4611686018427387904.0);
        ("{\"a\":-12}", Obj [ ("a", Int (-12)) ]);
      ]

let test_json_surrogates () =
  (* The old parser decoded each half on its own, to CESU-8. *)
  check_bool "old parser: CESU-8" true
    (Json_oracle.of_string {|"\ud83d\ude00"|}
    = Ok (Obs.Json.String "\xED\xA0\xBD\xED\xB8\x80"));
  parses_to {|"\ud83d\ude00"|} (Obs.Json.String "\xF0\x9F\x98\x80");
  parses_to {|"\uD83D\uDE00"|} (Obs.Json.String "\xF0\x9F\x98\x80");
  parses_to {|"a\ud800\udc00b"|} (Obs.Json.String "a\xF0\x90\x80\x80b");
  parses_to {|"\udbff\udfff"|} (Obs.Json.String "\xF4\x8F\xBF\xBF");
  parses_to {|"\u00e9\uffff\u0041\u0000"|} (Obs.Json.String "\xC3\xA9\xEF\xBF\xBFA\x00");
  List.iter rejected
    [ {|"\ud800"|}; {|"\ude00"|}; {|"\ud83d\u0041"|}; {|"\ud83dx"|}; {|"\ud83d\ud83d"|};
      {|"\ude00\ud83d"|}; {|"\ud83d\\"|}; {|"\ud83d\u"|}; {|["\udfff"]|} ]

(* --- metrics reconciliation --- *)

let hist name (v : Obs.Metrics.view) =
  List.find (fun h -> h.Obs.Metrics.name = name) v.Obs.Metrics.hists

let test_metrics_reconcile () =
  let sink, r = instrumented_run ~mode:`Pipelined ~n:200 () in
  let m = Obs.Sink.metrics sink in
  let v = Obs.Metrics.view m in
  check_int "issued = finished + errored"
    (Obs.Metrics.issued m)
    (Obs.Metrics.finished m + Obs.Metrics.errored m);
  check_int "finished matches runner" r.Core.Runner.txns
    (Obs.Metrics.finished m);
  check_int "beats counter matches runner" r.Core.Runner.beats
    (Obs.Metrics.beats m);
  let lat = hist "txn-latency-cycles" v in
  check_int "latency histogram total = finished counter"
    (Obs.Metrics.finished m) lat.Obs.Metrics.total;
  check_int "latency histogram mass is in the buckets" lat.Obs.Metrics.total
    (Array.fold_left ( + ) 0 lat.Obs.Metrics.counts);
  let occ = hist "request-queue-depth" v in
  check_int "occupancy histogram total = issued counter"
    (Obs.Metrics.issued m) occ.Obs.Metrics.total

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_metrics_render () =
  let sink, _ = instrumented_run ~n:64 () in
  let text = Core.Report.metrics (Obs.Sink.metrics sink) in
  check_bool "text report lists the issue counter" true
    (contains ~needle:"txns-issued" text);
  check_bool "text report lists the latency histogram" true
    (contains ~needle:"txn-latency-cycles" text);
  (* The JSON snapshot parses back. *)
  let json = Obs.Json.to_string (Obs.Metrics.to_json (Obs.Sink.metrics sink)) in
  match Obs.Json.of_string json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e

(* --- Chrome trace export --- *)

let chrome_events sink =
  let json = Obs.Chrome.to_string sink in
  match Obs.Json.of_string json with
  | Error e -> Alcotest.failf "chrome JSON does not parse: %s" e
  | Ok doc -> (
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list_opt with
    | None -> Alcotest.fail "no traceEvents array"
    | Some evs -> evs)

let field name ev = Obs.Json.member name ev

let test_chrome_well_formed () =
  let sink, _ = instrumented_run ~mode:`Pipelined ~n:150 () in
  let evs = chrome_events sink in
  check_bool "trace has events" true (List.length evs > 0);
  List.iter
    (fun ev ->
      List.iter
        (fun key ->
          match field key ev with
          | Some _ -> ()
          | None ->
            Alcotest.failf "event missing %S: %s" key (Obs.Json.to_string ev))
        [ "pid"; "tid"; "ph"; "ts"; "name" ])
    evs;
  (* B/E spans balance per (pid, tid) track and never go negative. *)
  let depth = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let num key =
        Option.bind (field key ev) Obs.Json.number_opt
        |> Option.value ~default:(-1.0)
      in
      let ph =
        Option.bind (field "ph" ev) Obs.Json.string_opt
        |> Option.value ~default:"?"
      in
      let track = (num "pid", num "tid") in
      let d = try Hashtbl.find depth track with Not_found -> 0 in
      match ph with
      | "B" -> Hashtbl.replace depth track (d + 1)
      | "E" ->
        check_bool "E only closes an open B" true (d > 0);
        Hashtbl.replace depth track (d - 1)
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun _ d -> check_int "all spans closed" 0 d)
    depth;
  (* Timestamps are sorted. *)
  let ts =
    List.filter_map (fun ev -> Option.bind (field "ts" ev) Obs.Json.number_opt) evs
  in
  check_bool "timestamps sorted" true (List.sort compare ts = ts)

let test_chrome_adaptive_windows () =
  let trace = Core.Workloads.mixed_phase_trace ~phase:64 ~sensitive_every:2 ~n:256 () in
  let sink = Obs.Sink.create () in
  let r =
    Core.Runner.run_adaptive ~mode:`Serial ~sink
      ~policy:Core.Experiments.adaptive_policy trace
  in
  check_bool "the stimulus actually switches levels" true
    (r.Core.Runner.switches > 0);
  let events = Obs.Sink.events sink in
  let count k =
    List.length (List.filter (fun (e : Obs.Event.t) -> e.kind = k) events)
  in
  let windows = List.length r.Core.Runner.splice.Hier.Splice.windows in
  check_int "one open per window" windows (count Obs.Event.Window_open);
  check_int "one close per window" windows (count Obs.Event.Window_close);
  check_int "one switch event per splice switch" r.Core.Runner.switches
    (count Obs.Event.Level_switch);
  (* Each routed front-end carries the run's sink: every transaction's
     lifecycle is recorded, whichever level carried it. *)
  check_int "one finish event per transaction" r.Core.Runner.txns
    (count Obs.Event.Txn_finished);
  (* Window closes carry the spliced energies: their sum is the run's. *)
  let close_pj =
    List.fold_left
      (fun acc (e : Obs.Event.t) ->
        if e.kind = Obs.Event.Window_close then acc +. e.value else acc)
      0.0 events
  in
  Alcotest.(check (float 1e-6)) "window closes sum to the spliced total"
    r.Core.Runner.bus_pj close_pj;
  (* Windows tile the spliced timeline: closes are monotone and the last
     one sits at the spliced end. *)
  let closes =
    List.filter (fun (e : Obs.Event.t) -> e.kind = Obs.Event.Window_close) events
  in
  ignore
    (List.fold_left
       (fun prev (e : Obs.Event.t) ->
         check_bool "closes monotone" true (e.cycle >= prev);
         e.cycle)
       0 closes);
  (match List.rev closes with
  | last :: _ -> check_int "last close at spliced end" r.Core.Runner.cycles last.cycle
  | [] -> Alcotest.fail "no closes");
  (* And the export stays parseable with the window track present. *)
  let evs = chrome_events sink in
  let on_level_track =
    List.filter
      (fun ev ->
        match Option.bind (field "tid" ev) Obs.Json.number_opt with
        | Some 1.0 -> true
        | _ -> false)
      evs
  in
  check_bool "level track populated" true (List.length on_level_track > windows)

(* --- attaching a sink does not change the simulation --- *)

let fingerprint (r : Core.Runner.result) =
  (r.cycles, r.txns, r.beats, r.errors, r.transitions, r.bus_pj, r.component_pj)

let test_bit_exact_with_sink () =
  let trace = Core.Workloads.table3_trace ~n:160 in
  List.iter
    (fun level ->
      let plain = Core.Runner.run_trace ~level ~mode:`Pipelined trace in
      let sink = Obs.Sink.create () in
      let instrumented =
        Core.Runner.run_trace ~level ~mode:`Pipelined ~sink trace
      in
      check_bool
        (Core.Level.to_string level ^ " bit-identical with sink")
        true
        (fingerprint plain = fingerprint instrumented))
    Core.Level.timed

let test_bit_exact_adaptive () =
  let trace = Core.Workloads.mixed_phase_trace ~phase:64 ~sensitive_every:2 ~n:256 () in
  let policy = Core.Experiments.adaptive_policy in
  let plain = Core.Runner.run_adaptive ~mode:`Serial ~policy trace in
  let sink = Obs.Sink.create () in
  let instrumented = Core.Runner.run_adaptive ~mode:`Serial ~sink ~policy trace in
  check_bool "adaptive bit-identical with sink" true
    ( plain.Core.Runner.cycles = instrumented.Core.Runner.cycles
    && plain.Core.Runner.txns = instrumented.Core.Runner.txns
    && plain.Core.Runner.beats = instrumented.Core.Runner.beats
    && plain.Core.Runner.bus_pj = instrumented.Core.Runner.bus_pj
    && plain.Core.Runner.component_pj = instrumented.Core.Runner.component_pj
    && plain.Core.Runner.switches = instrumented.Core.Runner.switches )

(* --- the sink-less path stays allocation-free --- *)

(* The instrumentation contract: the [match Iface.sink t.iface] arms add
   no allocation — neither disabled (the [None] arm) nor enabled
   (recording writes into preallocated arrays), and attaching the sink
   at the run's attach point ([Iface.set_sink]) is a field write.
   Measured comparatively on a bare gate-level bus, because the bus's
   own per-cycle energy accounting allocates a constant amount
   regardless; the instrumented replays must allocate exactly as many
   minor-heap words as the plain one. *)
let replay_words ?sink () =
  let kernel = Sim.Kernel.create () in
  let slave =
    Ec.Slave.make
      ~cfg:(Ec.Slave_cfg.make ~name:"probe-ram" ~base:0x0 ~size:4096 ())
      ~read:(fun ~addr:_ ~width:_ -> 0)
      ~write:(fun ~addr:_ ~width:_ ~value:_ -> ())
  in
  let decoder = Ec.Decoder.create [ slave ] in
  let bus = Rtl.Bus.create ~kernel ~decoder () in
  let port = Iface.port (Rtl.Bus.iface bus) in
  let txns =
    Array.init 64 (fun i -> Ec.Txn.single_read ~id:(i land 3) (4 * (i land 255)))
  in
  Sim.Kernel.run kernel ~cycles:64;
  let w0 = Gc.minor_words () in
  Iface.set_sink (Rtl.Bus.iface bus) sink;
  Array.iter
    (fun txn ->
      check_bool "serial submit accepted" true (port.Ec.Port.try_submit txn);
      while not (Ec.Port.completed port txn.Ec.Txn.id) do
        Sim.Kernel.step kernel
      done;
      port.Ec.Port.retire txn.Ec.Txn.id)
    txns;
  Sim.Kernel.run kernel ~cycles:256;
  Gc.minor_words () -. w0

let test_sinkless_no_alloc () =
  let plain = replay_words () in
  let disabled = replay_words () in
  check_bool "plain replay allocation is deterministic" true (plain = disabled);
  let sink = Obs.Sink.create () in
  let enabled = replay_words ~sink () in
  if enabled > plain then
    Alcotest.failf "sink recording allocates %.0f extra words over %.0f"
      (enabled -. plain) plain

(* --- monitor rejected vs metrics rejected --- *)

let test_monitor_rejected () =
  let sink = Obs.Sink.create () in
  let system = Core.System.create ~level:Core.Level.L1 () in
  Iface.set_sink (Core.System.iface (Core.System.bus system)) (Some sink);
  let kernel = Core.System.kernel system in
  let monitor = Soc.Monitor.create ~kernel (Core.System.port system) in
  (* Pipelined issue against the 4+4+4 outstanding limits congests. *)
  let trace = Core.Workloads.table3_trace ~n:300 in
  let master =
    Soc.Trace_master.create ~kernel ~port:(Soc.Monitor.port monitor)
      ~mode:`Pipelined trace
  in
  ignore (Soc.Trace_master.run master ~kernel ());
  check_bool "congestion actually happened" true (Soc.Monitor.rejected monitor > 0);
  check_int "monitor rejected = metrics rejected"
    (Obs.Metrics.rejected (Obs.Sink.metrics sink))
    (Soc.Monitor.rejected monitor);
  check_int "monitor accepted = metrics issued"
    (Obs.Metrics.issued (Obs.Sink.metrics sink))
    (Soc.Monitor.count monitor)

(* --- profile JSONL --- *)

let test_profile_jsonl () =
  let p = Power.Profile.create () in
  List.iter (Power.Profile.push p) [ 1.5; 0.0; 42.25 ];
  let lines = Power.Profile.to_jsonl_lines p in
  check_int "one line per cycle" (Power.Profile.length p) (List.length lines);
  List.iteri
    (fun i line ->
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "line %d does not parse: %s" i e
      | Ok doc ->
        let num key =
          Option.bind (Obs.Json.member key doc) Obs.Json.number_opt
        in
        Alcotest.(check (option (float 1e-9)))
          "cycle field" (Some (float_of_int i)) (num "cycle");
        Alcotest.(check (option (float 1e-9)))
          "pj field"
          (Some (Power.Profile.get p i))
          (num "pj"))
    lines

(* --- ring overflow --- *)

let test_ring_overflow () =
  let sink = Obs.Sink.create ~capacity:16 () in
  let trace = Core.Workloads.table3_trace ~n:64 in
  let r = Core.Runner.run_trace ~level:Core.Level.L1 ~mode:`Serial ~sink trace in
  check_int "ring holds its capacity" 16 (Obs.Sink.length sink);
  check_bool "overflow counted" true (Obs.Sink.dropped sink > 0);
  (* Metrics keep aggregating past the ring. *)
  check_int "metrics unaffected by the ring" r.Core.Runner.txns
    (Obs.Metrics.finished (Obs.Sink.metrics sink));
  (* And the export of a truncated ring is still well-formed. *)
  ignore (chrome_events sink)

let suite =
  [
    Alcotest.test_case "event ordering per level" `Quick test_event_ordering;
    QCheck_alcotest.to_alcotest prop_event_ordering;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "metrics reconcile with the run" `Quick
      test_metrics_reconcile;
    Alcotest.test_case "metrics render (text and JSON)" `Quick
      test_metrics_render;
    Alcotest.test_case "chrome trace well-formed" `Quick test_chrome_well_formed;
    Alcotest.test_case "chrome adaptive window track" `Quick
      test_chrome_adaptive_windows;
    Alcotest.test_case "bit-exact with sink (pure levels)" `Quick
      test_bit_exact_with_sink;
    Alcotest.test_case "bit-exact with sink (adaptive)" `Quick
      test_bit_exact_adaptive;
    Alcotest.test_case "instrumentation is allocation-free" `Quick
      test_sinkless_no_alloc;
    Alcotest.test_case "monitor rejected = metrics rejected" `Quick
      test_monitor_rejected;
    Alcotest.test_case "profile JSONL lines" `Quick test_profile_jsonl;
    Alcotest.test_case "event ring overflow" `Quick test_ring_overflow;
    QCheck_alcotest.to_alcotest prop_json_printer_oracle;
    QCheck_alcotest.to_alcotest prop_json_parser_oracle;
    Alcotest.test_case "Json numbers follow RFC 8259" `Quick
      test_json_strict_numbers;
    Alcotest.test_case "Json \\u surrogate pairs" `Quick test_json_surrogates;
  ]
