module J = Obs.Json

type workload =
  | Table3 of int
  | Mixed_phase of int
  | Characterization
  | Inline of string list

let trace_of_workload = function
  | Table3 n -> Core.Workloads.table3_trace ~n
  | Mixed_phase n -> Core.Workloads.mixed_phase_trace ~n ()
  | Characterization -> Core.Workloads.characterization_trace
  | Inline lines -> Ec.Trace.of_lines lines

type mode = [ `Serial | `Pipelined ]

type run = {
  workload : workload;
  level : Core.Level.t;
  mode : mode;
  estimate : bool;
  profile : bool;
  compiled : bool;
}

type fabric_spec = {
  fab_policy : Ec.Arbiter.policy;
  fab_topology : Core.Contention.topology;
}

type replay = {
  workload : workload;
  level : Core.Level.t;
  mode : mode;
  scales : float list;
  fabric : fabric_spec option;
}

type explore = {
  applets : string list;
  configs : string list;
  level : Core.Level.t;
  adaptive : bool;
}

(* Telemetry streams a client can subscribe to (DESIGN.md section 16):
   periodic metrics snapshots, Chrome/Perfetto trace chunks cut from
   server spans, and a live copy of every energy-jsonl chunk the daemon
   streams to any client. *)
type stream = [ `Metrics | `Trace | `Energy ]

type subscribe = { streams : stream list; interval_ms : int }

type request =
  | Run of run
  | Explore of explore
  | Replay of replay
  | Stats
  | Metrics
  | Subscribe of subscribe
  | Unsubscribe
  | Shutdown

type error_code =
  | Bad_frame
  | Oversized
  | Bad_json
  | Bad_request
  | Unknown_type
  | Busy
  | Draining
  | Failed

type result_body = {
  level : Core.Level.t;
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  transitions : int;
  wall_seconds : float;
}

let result_body_of_runner (r : Core.Runner.result) =
  {
    level = r.Core.Runner.level;
    cycles = r.Core.Runner.cycles;
    txns = r.Core.Runner.txns;
    beats = r.Core.Runner.beats;
    errors = r.Core.Runner.errors;
    bus_pj = r.Core.Runner.bus_pj;
    component_pj = r.Core.Runner.component_pj;
    transitions = r.Core.Runner.transitions;
    wall_seconds = r.Core.Runner.wall_seconds;
  }

type row_body = {
  config : string;
  applet : string;
  row_level : Core.Level.t;
  row_cycles : int;
  row_bus_pj : float;
  transactions : int;
  steps : int;
  value : int option;
  correct : bool;
  switches : int option;
  error_bound_pj : float option;
}

let row_body_of_exploration (r : Core.Exploration.row) =
  let splice f = Option.map f r.Core.Exploration.provenance in
  {
    config = r.Core.Exploration.config.Jcvm.Configs.name;
    applet = r.Core.Exploration.applet;
    row_level = r.Core.Exploration.level;
    row_cycles = r.Core.Exploration.cycles;
    row_bus_pj = r.Core.Exploration.bus_pj;
    transactions = r.Core.Exploration.transactions;
    steps = r.Core.Exploration.steps;
    value = r.Core.Exploration.value;
    correct = r.Core.Exploration.correct;
    switches = splice (fun s -> s.Hier.Splice.switches);
    error_bound_pj = splice (fun s -> s.Hier.Splice.error_bound_pj);
  }

type point_body = {
  point_seq : int;
  scale : float;
  point_bus_pj : float;
  point_cycles : int;
  point_txns : int;
  point_transitions : int;
  point_buckets : float list option;
}

type pool_stats = {
  session_hits : int;
  session_builds : int;
  plan_hits : int;
  plan_builds : int;
}

type worker_stat = { worker : int; jobs : int }

type stats_body = {
  queue_depth : int;
  queue_capacity : int;
  stats_draining : bool;
  uptime_s : float;
  accepted : int;
  rejected : int;
  completed : int;
  failed : int;
  spans_dropped : int;
  workers : worker_stat list;
  pool : pool_stats;
  rendered : string;
}

type metrics_body = {
  metrics_seq : int;
  snapshot : J.t;  (* Serve.Telemetry.snapshot document *)
  metrics_rendered : string;
}

type trace_body = {
  trace_seq : int;
  trace_events : J.t list;  (* Chrome trace-event objects *)
  trace_missed : int;  (* ring entries overwritten before this chunk *)
}

type subscribed_body = { sub_streams : stream list; sub_interval_ms : int }

type error_body = {
  code : error_code;
  message : string;
  retry_after_ms : int option;
}

type done_body = {
  frames : int;
  latency_ms : float;
  done_worker : int;
  done_pool : pool_stats;
}

type frame =
  | Accepted of int
  | Result of result_body
  | Row of int * row_body
  | Point of point_body
  | Energy of int * string list
  | Stats_reply of stats_body
  | Metrics_reply of metrics_body
  | Trace_chunk of trace_body
  | Subscribed of subscribed_body
  | Error of error_body
  | Done of done_body

(* --- the codec layer ---

   Each message's wire shape is declared once, as a codec, and both
   directions are read off that declaration.  A decode error names the
   member path that failed, outermost first, and what was wrong there.
   ([Result.Error] is spelled out: [Error] is the error frame.) *)

type error = string list * string
type 'a codec = { enc : 'a -> J.t; dec : J.t -> ('a, error) result }

let ( let* ) = Result.bind
let fail ?(path = []) msg = Result.Error (path, msg)

let describe (path, msg) =
  match path with
  | [] -> msg
  | _ -> Printf.sprintf "field %S: %s" (String.concat "." path) msg

let prim what get enc =
  let err = fail ("expected " ^ what) in
  { enc; dec = (fun j -> match get j with Some v -> Ok v | None -> err) }

let int = prim "an integer" J.int_opt (fun n -> J.Int n)
let float = prim "a number" J.number_opt (fun f -> J.Float f)
let bool = prim "a boolean" J.bool_opt (fun b -> J.Bool b)
let string = prim "a string" J.string_opt (fun s -> J.String s)
let any = { enc = Fun.id; dec = Result.ok }

let list c =
  let rec decode acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest ->
      let* v = c.dec item in
      decode (v :: acc) rest
  in
  let dec = function
    | J.List items -> decode [] items
    | _ -> fail "expected a list"
  in
  { enc = (fun vs -> J.List (List.map c.enc vs)); dec }

(* Two ways to put an ['a option] on the wire: [nullable] spells [None]
   as [null]; [some] refuses [null], for members left out when [None]. *)
let nullable c =
  let dec = function J.Null -> Ok None | j -> Result.map Option.some (c.dec j)
  in
  { enc = (function None -> J.Null | Some v -> c.enc v); dec }

let some c =
  { (nullable c) with dec = (fun j -> Result.map Option.some (c.dec j)) }

(* A decoded value must also pass [ok]; encoding is unchecked. *)
let check ok c =
  let dec j =
    let* v = c.dec j in
    match ok v with Ok () -> Ok v | Result.Error msg -> fail msg
  in
  { c with dec }

let within lo hi =
  check
    (fun n ->
      if n >= lo && n <= hi then Ok ()
      else Result.Error (Printf.sprintf "%d out of range [%d, %d]" n lo hi))
    int

let non_empty c =
  check (function [] -> Result.Error "must not be empty" | _ -> Ok ()) c

(* A string spelled by [to_string]/[of_string]; [hint] lists the accepted
   spellings in the error. *)
let conv what ~hint to_string of_string =
  let dec j =
    let* s = string.dec j in
    match of_string s with
    | Some v -> Ok v
    | None -> fail (Printf.sprintf "unknown %s %S (%s)" what s hint)
  in
  { enc = (fun v -> J.String (to_string v)); dec }

let wire_name table v = fst (List.find (fun (_, v') -> v' = v) table)

let enum what table =
  conv what
    ~hint:(String.concat "|" (List.map fst table))
    (wire_name table)
    (fun s -> List.assoc_opt s table)

(* An object under construction: [write] emits the members declared so
   far, in order, ahead of [tail]; [read] decodes them into a constructor
   ['k] still waiting for the members declared after them. *)
type ('r, 'k) fields = {
  write : 'r -> (string * J.t) list -> (string * J.t) list;
  read : J.t -> ('k, error) result;
}

let fields k = { write = (fun _ tail -> tail); read = (fun _ -> Ok k) }

(* One member: absent decodes to [default] (required without one), and
   the member is left out of the encoding where [omit] holds. *)
let field ?default ?omit name get c o =
  let write r tail =
    let v = get r in
    let skip = match omit with Some omit -> omit v | None -> false in
    o.write r (if skip then tail else (name, c.enc v) :: tail)
  in
  let read j =
    let* k = o.read j in
    match (J.member name j, default) with
    | Some m, _ -> (
      match c.dec m with
      | Ok v -> Ok (k v)
      | Result.Error (path, msg) -> Result.Error (name :: path, msg))
    | None, Some v -> Ok (k v)
    | None, None -> fail ~path:[ name ] "missing"
  in
  { write; read }

let optional name get c =
  field name get ~default:None ~omit:Option.is_none (some c)

(* A body of one member, decoded as its value. *)
let member name c = fields Fun.id |> field name Fun.id c

let obj o =
  let dec = function
    | J.Obj _ as j -> o.read j
    | _ -> fail "expected an object"
  in
  { enc = (fun r -> J.Obj (o.write r [])); dec }

(* A variant tagged by a string member; each case's own members sit
   beside the tag in the same object. *)
type 'v case =
  | Case : string * ('b, 'b) fields * ('b -> 'v) * ('v -> 'b option) -> 'v case

let case tag body inj proj = Case (tag, body, inj, proj)

let unit_case tag v =
  case tag (fields ()) (fun () -> v) (fun w -> if w = v then Some () else None)

let tagged tag what cases =
  (* The cases cover the variant, so exactly one projection answers. *)
  let write v tail =
    let emit (Case (t, body, _, proj)) =
      Option.map (fun b -> (tag, J.String t) :: body.write b tail) (proj v)
    in
    Option.get (List.find_map emit cases)
  in
  let kind =
    member tag
      (enum what (List.map (fun (Case (t, _, _, _) as c) -> (t, c)) cases))
  in
  let read j =
    match kind.read j with
    | Ok (Case (_, body, inj, _)) -> Result.map inj (body.read j)
    | Result.Error e -> Result.Error e
  in
  { write; read }

(* --- enums --- *)

let level =
  enum "level" Core.Level.[ ("rtl", Rtl); ("l1", L1); ("l2", L2); ("l3", L3) ]

let mode : mode codec =
  enum "mode" [ ("serial", `Serial); ("pipelined", `Pipelined) ]

let streams : (string * stream) list =
  [ ("metrics", `Metrics); ("trace", `Trace); ("energy", `Energy) ]

let stream = enum "stream" streams
let stream_to_wire = wire_name streams

let error_codes =
  [ ("bad_frame", Bad_frame); ("oversized", Oversized); ("bad_json", Bad_json);
    ("bad_request", Bad_request); ("unknown_type", Unknown_type);
    ("busy", Busy); ("draining", Draining); ("failed", Failed) ]

let error_code = enum "error code" error_codes
let error_code_to_string = wire_name error_codes

(* --- requests --- *)

let max_workload_txns = 1_000_000
let txns = member "n" (within 1 max_workload_txns)

(* Parsed now, so that a malformed trace is a [bad_request] rather than a
   mid-job failure. *)
let trace_lines =
  check
    (fun lines ->
      match Ec.Trace.of_lines lines with
      | _ -> Ok ()
      | exception Failure msg -> Result.Error msg)
    (non_empty (list string))

let workload =
  obj
    (tagged "kind" "workload kind"
       [
         case "table3" txns (fun n -> Table3 n) (function
           | Table3 n -> Some n | _ -> None);
         case "mixed" txns (fun n -> Mixed_phase n) (function
           | Mixed_phase n -> Some n | _ -> None);
         unit_case "characterization" Characterization;
         case "inline" (member "lines" trace_lines) (fun l -> Inline l)
           (function Inline l -> Some l | _ -> None);
       ])

let run =
  fields (fun workload level mode estimate profile compiled ->
      { workload; level; mode; estimate; profile; compiled })
  |> field "workload" (fun (r : run) -> r.workload) workload
  |> field "level" (fun (r : run) -> r.level) level ~default:Core.Level.L1
  |> field "mode" (fun (r : run) -> r.mode) mode ~default:`Serial
  |> field "estimate" (fun r -> r.estimate) bool ~default:true
  |> field "profile" (fun r -> r.profile) bool ~default:false
  |> field "compiled" (fun r -> r.compiled) bool ~default:false

let known what names =
  conv what ~hint:(String.concat "|" names) Fun.id (fun s ->
      List.find_opt (String.equal s) names)

let explore =
  let applets = List.map (fun a -> a.Jcvm.Applets.name) Jcvm.Applets.all in
  let configs = List.map (fun c -> c.Jcvm.Configs.name) Jcvm.Configs.standard in
  fields (fun applets configs level adaptive ->
      { applets; configs; level; adaptive })
  |> field "applets" (fun e -> e.applets) (list (known "applet" applets))
       ~default:[]
  |> field "configs" (fun e -> e.configs) (list (known "config" configs))
       ~default:[]
  |> field "level" (fun (e : explore) -> e.level) level ~default:Core.Level.L1
  |> field "adaptive" (fun e -> e.adaptive) bool ~default:false

let fabric_spec =
  obj
    (fields (fun fab_policy fab_topology -> { fab_policy; fab_topology })
    |> field "policy" (fun f -> f.fab_policy) ~default:Ec.Arbiter.Round_robin
         (conv "arbiter policy" ~hint:"fixed|rr|wrr:w,..."
            Ec.Arbiter.policy_to_string Ec.Arbiter.policy_of_string)
    |> field "topology" (fun f -> f.fab_topology)
         ~default:Core.Contention.Single
         (conv "topology" ~hint:"single|bridged"
            Core.Contention.topology_to_string
            Core.Contention.topology_of_string))

let positive =
  check
    (fun s ->
      if Float.is_finite s && s > 0.0 then Ok ()
      else Result.Error (Printf.sprintf "scale %g is not positive" s))
    float

(* [Core.Contention.validate]'s refusal of layer 3, at decode time, so
   that a fabric replay there is a [bad_request] rather than a failed
   job. *)
let replay =
  let body =
    fields (fun workload level mode scales fabric ->
        { workload; level; mode; scales; fabric })
    |> field "workload" (fun (r : replay) -> r.workload) workload
    |> field "level" (fun (r : replay) -> r.level) level
         ~default:Core.Level.L1
    |> field "mode" (fun (r : replay) -> r.mode) mode ~default:`Serial
    |> field "scales" (fun r -> r.scales) (non_empty (list positive))
         ~default:[ 1.0 ]
    |> optional "fabric" (fun r -> r.fabric) fabric_spec
  in
  let read j =
    let* r = body.read j in
    match (r.fabric, r.level) with
    | Some _, Core.Level.L3 ->
      fail ~path:[ "level" ] "fabric masters drive timed buses (rtl/l1/l2)"
    | _ -> Ok r
  in
  { body with read }

let subscribe =
  fields (fun streams interval_ms -> { streams; interval_ms })
  |> field "streams" (fun s -> s.streams) (non_empty (list stream))
  |> field "interval_ms" (fun s -> s.interval_ms) (within 10 60_000)
       ~default:500

let request_cases =
  [
    case "run" run (fun r -> Run r) (function Run r -> Some r | _ -> None);
    case "explore" explore (fun e -> Explore e) (function
      | Explore e -> Some e | _ -> None);
    case "replay" replay (fun r -> Replay r) (function
      | Replay r -> Some r | _ -> None);
    unit_case "stats" Stats;
    unit_case "metrics" Metrics;
    case "subscribe" subscribe (fun s -> Subscribe s) (function
      | Subscribe s -> Some s | _ -> None);
    unit_case "unsubscribe" Unsubscribe;
    unit_case "shutdown" Shutdown;
  ]

let requests = tagged "type" "request type" request_cases
let request = obj requests
let request_id json = Option.value (J.member "id" json) ~default:J.Null
let request_to_json ~id r = J.Obj (("id", id) :: requests.write r [])

let request_of_json json =
  match request.dec json with
  | Ok r -> Ok r
  | Result.Error e ->
    let code =
      match J.member "type" json with
      | Some (J.String t)
        when List.for_all (fun (Case (t', _, _, _)) -> t' <> t) request_cases ->
        Unknown_type
      | _ -> Bad_request
    in
    Result.Error (code, describe e)

(* --- frames --- *)

let pool_stats =
  obj
    (fields (fun session_hits session_builds plan_hits plan_builds ->
         { session_hits; session_builds; plan_hits; plan_builds })
    |> field "session_hits" (fun p -> p.session_hits) int
    |> field "session_builds" (fun p -> p.session_builds) int
    |> field "plan_hits" (fun p -> p.plan_hits) int
    |> field "plan_builds" (fun p -> p.plan_builds) int)

let result_body =
  obj
    (fields
       (fun level cycles txns beats errors bus_pj component_pj transitions
            wall_seconds ->
         { level; cycles; txns; beats; errors; bus_pj; component_pj;
           transitions; wall_seconds })
    |> field "level" (fun (r : result_body) -> r.level) level
    |> field "cycles" (fun (r : result_body) -> r.cycles) int
    |> field "txns" (fun r -> r.txns) int
    |> field "beats" (fun r -> r.beats) int
    |> field "errors" (fun r -> r.errors) int
    |> field "bus_pj" (fun r -> r.bus_pj) float
    |> field "component_pj" (fun r -> r.component_pj) float
    |> field "transitions" (fun r -> r.transitions) int
    |> field "wall_seconds" (fun r -> r.wall_seconds) float)

let row_body =
  obj
    (fields
       (fun config applet row_level row_cycles row_bus_pj transactions steps
            value correct switches error_bound_pj ->
         { config; applet; row_level; row_cycles; row_bus_pj; transactions;
           steps; value; correct; switches; error_bound_pj })
    |> field "config" (fun r -> r.config) string
    |> field "applet" (fun r -> r.applet) string
    |> field "level" (fun r -> r.row_level) level
    |> field "cycles" (fun r -> r.row_cycles) int
    |> field "bus_pj" (fun r -> r.row_bus_pj) float
    |> field "transactions" (fun r -> r.transactions) int
    |> field "steps" (fun r -> r.steps) int
    |> field "value" (fun r -> r.value) (nullable int) ~default:None
    |> field "correct" (fun r -> r.correct) bool
    |> field "switches" (fun r -> r.switches) (nullable int) ~default:None
    |> field "error_bound_pj" (fun r -> r.error_bound_pj) (nullable float)
         ~default:None)

let point =
  fields
    (fun point_seq scale point_bus_pj point_cycles point_txns
         point_transitions point_buckets ->
      { point_seq; scale; point_bus_pj; point_cycles; point_txns;
        point_transitions; point_buckets })
  |> field "seq" (fun p -> p.point_seq) int
  |> field "scale" (fun p -> p.scale) float
  |> field "bus_pj" (fun p -> p.point_bus_pj) float
  |> field "cycles" (fun p -> p.point_cycles) int
  |> field "txns" (fun p -> p.point_txns) int
  |> field "transitions" (fun p -> p.point_transitions) int
  |> optional "buckets" (fun p -> p.point_buckets) (list float)

let worker_stat =
  obj
    (fields (fun worker jobs -> { worker; jobs })
    |> field "worker" (fun w -> w.worker) int
    |> field "jobs" (fun w -> w.jobs) int)

let stats =
  fields
    (fun queue_depth queue_capacity stats_draining uptime_s accepted rejected
         completed failed spans_dropped workers pool rendered ->
      { queue_depth; queue_capacity; stats_draining; uptime_s; accepted;
        rejected; completed; failed; spans_dropped; workers; pool; rendered })
  |> field "queue_depth" (fun s -> s.queue_depth) int
  |> field "queue_capacity" (fun s -> s.queue_capacity) int
  |> field "draining" (fun s -> s.stats_draining) bool
  |> field "uptime_s" (fun s -> s.uptime_s) float
  |> field "accepted" (fun s -> s.accepted) int
  |> field "rejected" (fun s -> s.rejected) int
  |> field "completed" (fun s -> s.completed) int
  |> field "failed" (fun s -> s.failed) int
  |> field "spans_dropped" (fun s -> s.spans_dropped) int
  |> field "workers" (fun s -> s.workers) (list worker_stat)
  |> field "pool" (fun s -> s.pool) pool_stats
  |> field "rendered" (fun s -> s.rendered) string

let metrics =
  fields (fun metrics_seq snapshot metrics_rendered ->
      { metrics_seq; snapshot; metrics_rendered })
  |> field "seq" (fun m -> m.metrics_seq) int
  |> field "snapshot" (fun m -> m.snapshot) any
  |> field "rendered" (fun m -> m.metrics_rendered) string

let trace =
  fields (fun trace_seq trace_events trace_missed ->
      { trace_seq; trace_events; trace_missed })
  |> field "seq" (fun t -> t.trace_seq) int
  |> field "events" (fun t -> t.trace_events) (list any)
  |> field "missed" (fun t -> t.trace_missed) int

let subscribed =
  fields (fun sub_streams sub_interval_ms -> { sub_streams; sub_interval_ms })
  |> field "streams" (fun s -> s.sub_streams) (list stream)
  |> field "interval_ms" (fun s -> s.sub_interval_ms) int

let error =
  fields (fun code message retry_after_ms -> { code; message; retry_after_ms })
  |> field "code" (fun e -> e.code) error_code
  |> field "message" (fun e -> e.message) string
  |> field "retry_after_ms" (fun e -> e.retry_after_ms) (nullable int)
       ~default:None ~omit:Option.is_none

let done_ =
  fields (fun frames latency_ms done_worker done_pool ->
      { frames; latency_ms; done_worker; done_pool })
  |> field "frames" (fun d -> d.frames) int
  |> field "latency_ms" (fun d -> d.latency_ms) float
  |> field "worker" (fun d -> d.done_worker) int
  |> field "pool" (fun d -> d.done_pool) pool_stats

(* A sequence number beside one more member: row and energy frames. *)
let seq_and name c =
  fields (fun seq v -> (seq, v)) |> field "seq" fst int |> field name snd c

let frames =
  tagged "frame" "frame kind"
    [
      case "accepted" (member "queue_depth" int) (fun d -> Accepted d)
        (function Accepted d -> Some d | _ -> None);
      case "result" (member "result" result_body) (fun r -> Result r)
        (function Result r -> Some r | _ -> None);
      case "row" (seq_and "row" row_body)
        (fun (seq, r) -> Row (seq, r))
        (function Row (seq, r) -> Some (seq, r) | _ -> None);
      case "point" point (fun p -> Point p) (function
        | Point p -> Some p | _ -> None);
      case "energy" (seq_and "lines" (list string))
        (fun (seq, lines) -> Energy (seq, lines))
        (function Energy (seq, lines) -> Some (seq, lines) | _ -> None);
      case "stats" stats (fun s -> Stats_reply s) (function
        | Stats_reply s -> Some s | _ -> None);
      case "metrics" metrics (fun m -> Metrics_reply m) (function
        | Metrics_reply m -> Some m | _ -> None);
      case "trace" trace (fun t -> Trace_chunk t) (function
        | Trace_chunk t -> Some t | _ -> None);
      case "subscribed" subscribed (fun s -> Subscribed s) (function
        | Subscribed s -> Some s | _ -> None);
      case "error" error (fun e -> Error e) (function
        | Error e -> Some e | _ -> None);
      case "done" done_ (fun d -> Done d) (function
        | Done d -> Some d | _ -> None);
    ]

let frame = obj frames
let frame_to_json ~id f = J.Obj (("id", id) :: frames.write f [])

let frame_of_json json =
  match frame.dec json with
  | Ok f -> Ok (request_id json, f)
  | Result.Error e -> Result.Error (describe e)
