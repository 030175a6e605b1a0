(* One benchmark run: parse the arguments, run the workload, check it,
   print its figures and write its record. *)

open Util

type args = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  out : string option;
  inject : bool;
}

let parse_args argv =
  let a = ref { workload = ""; seed = 1; seconds = 10.0; traced = false; out = None; inject = false } in
  let rec go = function
    | "--workload" :: w :: rest -> a := { !a with workload = w }; go rest
    | "--seed" :: s :: rest -> a := { !a with seed = int_of_string s }; go rest
    | "--seconds" :: s :: rest -> a := { !a with seconds = float_of_string s }; go rest
    | "--trace" :: t :: rest -> a := { !a with traced = int_of_string t <> 0 }; go rest
    | "--out" :: f :: rest -> a := { !a with out = Some f }; go rest
    | "--inject-mismatch" :: rest -> a := { !a with inject = true }; go rest
    | [] -> ()
    | arg :: _ -> failwith ("unknown argument " ^ arg)
  in
  go argv;
  if not (List.mem_assoc !a.workload Spec.workloads) then
    failwith ("unknown workload " ^ !a.workload);
  !a

let run_workload a checks r =
  match a.workload with
  | "replay" -> Replay.run ~seed:a.seed ~seconds:a.seconds ~traced:a.traced ~checks r
  | "serve" -> Serve_load.run ~seed:a.seed ~seconds:a.seconds ~traced:a.traced ~checks r
  | "sweep" -> Sweep.run ~seed:a.seed ~seconds:a.seconds ~traced:a.traced ~checks r
  | w -> failwith ("unknown workload " ^ w)

let metric_json (name, value) =
  let unit_ = match Spec.find name with Some m -> m.unit_ | None -> "" in
  (name, Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit_) ])

(* The spans of a traced run as a Chrome/Perfetto file, read back with
   the same parser to prove it well-formed. *)
let write_spans checks path recorders =
  write_file path (Obs.Json.to_string (Span.chrome_json recorders));
  let events =
    match Obs.Json.of_string (read_file path) with
    | Ok doc -> Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list_opt
    | Error _ -> None
  in
  Util.check checks "span file parses back"
    (Option.map List.length events = Some (Span.count recorders))

let run a =
  (* A hung run must not outlive the harness's time limit. *)
  ignore (Unix.alarm 175);
  ensure_dir out_dir;
  let checks = Util.checks ~inject:a.inject in
  let r = Span.recorder ~tid:0 in
  let o = run_workload a checks r in
  Printf.printf "workload %s  seed %d  traced %b  digest %s\n" a.workload a.seed a.traced o.digest;
  Bench.check_tables checks;
  let tag = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir a.workload a.seed (if a.traced then 1 else 0) in
  let metrics =
    if a.traced then begin
      (* One span file per workload, replaced by its next traced run. *)
      write_spans checks (Printf.sprintf "%s/%s.spans.json" out_dir a.workload) o.recorders;
      let self = Span.layer_self o.recorders in
      print_endline "layer self time inside operations (traced cycles):";
      List.iter
        (fun (layer, _) ->
          Printf.printf "  %-18s %12.3f ms\n" layer
            (1000.0 *. Option.value ~default:0.0 (Hashtbl.find_opt self layer)))
        Spec.layers;
      let trace = Bench.trace_metrics o in
      let unattributed = List.assoc "trace.unattributed_pct" trace in
      Util.check checks
        (Printf.sprintf "layer self time covers operations within %.0f%%" Spec.reconcile_margin_pct)
        (Float.abs unattributed <= Spec.reconcile_margin_pct);
      let own = o.layer_metrics @ Bench.system_probe r @ trace in
      List.map
        (fun (m : Spec.metric) -> (m.name, Option.value ~default:0.0 (List.assoc_opt m.name own)))
        Spec.per_layer
    end
    else Bench.end_to_end o
  in
  let attempted = max 1 o.attempted in
  let failed = min attempted (o.failed_ops + List.length checks.failures) in
  let correct = checks.failures = [] && o.failed_ops = 0 in
  Printf.printf "checks: %d passed, %d failed%s\n" checks.passed (List.length checks.failures)
    (String.concat "" (List.map (fun f -> "\n  FAILED: " ^ f) (List.rev checks.failures)));
  Printf.printf "operations: %d attempted, %d failed (fail ratio %.4f)\n" attempted failed
    (float_of_int failed /. float_of_int attempted);
  let untraced = List.length (Util.ops_of ~traced:false o.log) in
  let blocks = Bench.p99_blocks untraced in
  Printf.printf
    "untraced: %d work cycles in %.2f s; latency over %d operations, p99 per block of %d (%d beyond)\n"
    (List.length o.cycle_figures)
    (List.fold_left (fun a (c : Util.cycle) -> a +. c.c_seconds) 0.0 o.cycle_figures)
    untraced (untraced / blocks) (Util.beyond (untraced / blocks) 99.0);
  List.iter
    (fun (name, v) ->
      let m = Spec.find name in
      Printf.printf "  %-34s %14.4f %s\n" name v
        (match m with Some m -> m.unit_ ^ " (" ^ Spec.better_to_string m.better ^ ")" | None -> ""))
    metrics;
  let summary =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool correct);
        ("attempted", Obs.Json.Int attempted);
        ("failed", Obs.Json.Int failed);
        ("metrics", Obs.Json.Obj (List.map metric_json metrics));
      ]
  in
  let record =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String a.workload);
        ("seed", Obs.Json.Int a.seed);
        ("seconds", Obs.Json.Float a.seconds);
        ("trace", Obs.Json.Bool a.traced);
        ("digest", Obs.Json.String o.digest);
        ("failures", Obs.Json.List (List.map (fun f -> Obs.Json.String f) checks.failures));
        ("result", summary);
      ]
  in
  let line = Obs.Json.to_string record in
  write_file (tag ^ ".json") line;
  Option.iter
    (fun f ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 f in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (line ^ "\n")))
    a.out;
  print_endline (Obs.Json.to_string summary);
  if not correct then exit 1

