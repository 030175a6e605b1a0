(* The benchmark's workloads and metrics.  BENCHMARK.json at the
   repository root carries the same table for the harness that runs the
   benchmark; [main.exe selftest] fails when the two disagree. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** end-to-end metrics only: the share of the baseline median by
          which the metric may worsen before a change is a regression *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let workloads =
  [
    ( "replay",
      "Table 3: interpreted rtl/L1/L2/L3, adaptive and 3-master fabric \
       trace replay on pooled sessions; the bus models and estimators do \
       the work, compile and serve do none" );
    ( "sweep",
      "warm design-space sweep: replay_multi, fabric folds, the contention \
       grid and JCVM cells off memoized plans; only the compile fold and \
       memo reads run once warm" );
    ( "serve",
      "closed loop of 2 clients against the in-process daemon over a Unix \
       socket; wire, JSON, queue and scheduler dominate, never-seen traces \
       add capture and memo writes" );
  ]

(* Every workload reports every end-to-end metric.  An operation is one
   call the workload makes: a replay ([run_trace], [run_adaptive],
   [Contention.run]), a sweep call (a batch of characterization points,
   the contention grid, or one exploration cell), or a request round
   trip.

   - ktxn_per_s: simulated bus transactions estimated per host second
     (the unit of the paper's Table 3), counted once per result, so a
     16-point batch over a 2000-transaction plan counts 32000;
   - results_per_s: energy results per second: replays, characterization
     points and cells, requests (both rates: the 75th percentile over
     work cycles);
   - p50_ms, p99_ms: operation latency; the p99 is the 10th percentile
     of the p99s of consecutive blocks of at least 2000 operations;
   - l1/l2_energy_err_pct: |bus energy - gate-level energy| / gate-level
     energy on the workload's fixed Table-3 traces, exact for the
     program, so a change to a model shows;
   - peak_rss_mb: the process's resident high-water mark;
   - setup_s: median of seven cold set-ups (builds, characterization,
     plan capture, daemon start, one warm pass).

   Times and rates are reported at a reference host speed, see
   [Util.Calib]. *)
let end_to_end =
  [
    e2e "ktxn_per_s" "kT/s" Higher 0.25;
    e2e "results_per_s" "1/s" Higher 0.25;
    e2e "p50_ms" "ms" Lower 0.25;
    e2e "p99_ms" "ms" Lower 0.25;
    e2e "l1_energy_err_pct" "%" Lower 0.05;
    e2e "l2_energy_err_pct" "%" Lower 0.05;
    e2e "peak_rss_mb" "MB" Lower 0.15;
    e2e "setup_s" "s" Lower 0.25;
  ]

(* Reported by the traced run.  A layer a workload never calls reports
   0. *)
let per_layer =
  [
    layer "rtl.ns_per_cycle" "ns/cycle" Lower;
    layer "tlm1.ns_per_cycle" "ns/cycle" Lower;
    layer "tlm2.ns_per_cycle" "ns/cycle" Lower;
    layer "tlm3.ns_per_txn" "ns/txn" Lower;
    layer "power.l1_estimate_share" "ratio" Lower;
    layer "power.l2_estimate_share" "ratio" Lower;
    layer "hier.windows" "count" Lower;
    layer "hier.switches" "count" Lower;
    layer "hier.us_per_window" "us/window" Lower;
    layer "ec.fabric_grants" "count" Lower;
    layer "ec.fabric_ns_per_cycle" "ns/cycle" Lower;
    layer "core.system_build_us" "us" Lower;
    layer "core.system_reset_us" "us" Lower;
    layer "core.pool_session_hit_ratio" "ratio" Higher;
    layer "core.pool_memo_hit_ratio" "ratio" Higher;
    layer "core.pool_memo_entries" "count" Lower;
    layer "compile.capture_us_per_txn" "us/txn" Lower;
    layer "compile.fold_ns_per_point" "ns/point" Lower;
    layer "compile.fabric_fold_us_per_point" "us/point" Lower;
    layer "core.explore_cell_fold_us" "us/cell" Lower;
    layer "serve.rtt_ms" "ms" Lower;
    layer "serve.server_ms" "ms" Lower;
    layer "serve.wire_ms" "ms" Lower;
    layer "serve.queue_wait_ms" "ms" Lower;
    layer "serve.execute_ms" "ms" Lower;
    layer "serve.busy_ratio" "ratio" Lower;
    layer "obs.json_encode_us" "us" Lower;
    layer "obs.json_decode_us" "us" Lower;
    layer "self.core_runner_pct" "%" Lower;
    layer "self.core_contention_pct" "%" Lower;
    layer "self.core_exploration_pct" "%" Lower;
    layer "self.core_system_pct" "%" Lower;
    layer "self.core_pool_pct" "%" Lower;
    layer "self.compile_eval_pct" "%" Lower;
    layer "self.serve_client_pct" "%" Lower;
    layer "self.obs_json_pct" "%" Lower;
    layer "trace.unattributed_pct" "%" Lower;
    layer "trace.overhead_pct" "%" Lower;
    layer "trace.spans" "count" Lower;
  ]

(* The layers the traced run wraps in spans, with the self-time metric
   each one feeds. *)
let layers =
  [
    ("Core.Runner", "self.core_runner_pct");
    ("Core.Contention", "self.core_contention_pct");
    ("Core.Exploration", "self.core_exploration_pct");
    ("Core.System", "self.core_system_pct");
    ("Core.Pool", "self.core_pool_pct");
    ("Compile.Eval", "self.compile_eval_pct");
    ("Serve.Client", "self.serve_client_pct");
    ("Obs.Json", "self.obs_json_pct");
  ]

(* Layer self time must cover the operation wall time to within this
   share (percent) in a traced run. *)
let reconcile_margin_pct = 5.0

let find name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

let better_to_string = function Higher -> "higher" | Lower -> "lower"
