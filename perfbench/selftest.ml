(* [main.exe selftest]: the benchmark's own tests.

   Checks that BENCHMARK.json states the workloads and metrics this
   program measures, then runs every workload at reduced length, untraced
   and traced, and asserts that each run passes its correctness gate and
   prints exactly its metric set with units; that the same seed repeats
   the same digest of simulated statistics; and that an injected
   mismatch makes the run fail. *)

let failures = ref 0

let expect name ok =
  Printf.printf "%s  %s\n%!" (if ok then "PASS" else "FAIL") name;
  if not ok then incr failures

let member_string k doc = Option.bind (Obs.Json.member k doc) Obs.Json.string_opt
let members k doc = Option.value ~default:[] (Option.bind (Obs.Json.member k doc) Obs.Json.to_list_opt)

let check_benchmark_json path =
  match Obs.Json.of_string (Util.read_file path) with
  | Error e -> expect ("BENCHMARK.json parses: " ^ e) false
  | Ok doc ->
    let metrics key (spec : Spec.metric list) =
      let listed =
        List.map
          (fun m ->
            ( member_string "name" m,
              member_string "unit" m,
              member_string "better" m,
              Option.bind (Obs.Json.member "bound" m) Obs.Json.number_opt ))
          (members key doc)
      in
      let wanted =
        List.map
          (fun (m : Spec.metric) ->
            (Some m.name, Some m.unit_, Some (Spec.better_to_string m.better), m.bound))
          spec
      in
      expect ("BENCHMARK.json " ^ key ^ " matches the metrics measured") (listed = wanted)
    in
    metrics "end_to_end" Spec.end_to_end;
    metrics "per_layer" Spec.per_layer;
    expect "BENCHMARK.json workloads match"
      (List.map (fun w -> (member_string "name" w, member_string "why" w)) (members "workloads" doc)
      = List.map (fun (n, why) -> (Some n, Some why)) Spec.workloads)

(* Runs this executable on [args]; returns whether it exited 0 and its
   last stdout line parsed. *)
let child args =
  let out = Filename.concat Util.out_dir "selftest.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' (Util.read_file out)) in
  let last =
    match List.rev lines with
    | l :: _ -> Result.to_option (Obs.Json.of_string l)
    | [] -> None
  in
  (status = Unix.WEXITED 0, last)

let metric_set doc =
  match Option.bind doc (Obs.Json.member "metrics") with
  | Some (Obs.Json.Obj fields) ->
    List.map (fun (name, v) -> (name, member_string "unit" v)) fields
  | _ -> []

let digest_of ~workload ~seed =
  let path = Printf.sprintf "%s/%s-seed%d-trace0.json" Util.out_dir workload seed in
  match Obs.Json.of_string (Util.read_file path) with
  | Ok doc -> member_string "digest" doc
  | Error _ -> None

let run ~seconds =
  Util.ensure_dir Util.out_dir;
  check_benchmark_json "BENCHMARK.json";
  let secs = Printf.sprintf "%g" seconds in
  List.iter
    (fun (w, _) ->
      let args seed trace = [ "--workload"; w; "--seed"; seed; "--seconds"; secs; "--trace"; trace ] in
      let expected (spec : Spec.metric list) = List.map (fun (m : Spec.metric) -> (m.name, Some m.unit_)) spec in
      let ok, doc = child (args "5" "0") in
      expect (w ^ ": untraced run passes its gate") (ok && Option.bind doc (Obs.Json.member "correct") = Some (Obs.Json.Bool true));
      expect (w ^ ": prints every end-to-end metric with its unit") (metric_set doc = expected Spec.end_to_end);
      let first = digest_of ~workload:w ~seed:5 in
      let _ = child (args "5" "0") in
      expect (w ^ ": the same seed repeats the digest") (first <> None && digest_of ~workload:w ~seed:5 = first);
      let ok, doc = child (args "6" "1") in
      expect (w ^ ": traced run passes its gate") ok;
      expect (w ^ ": prints every per-layer metric with its unit") (metric_set doc = expected Spec.per_layer);
      let ok, doc = child (args "7" "0" @ [ "--inject-mismatch" ]) in
      expect (w ^ ": an injected mismatch fails the run")
        ((not ok) && Option.bind doc (Obs.Json.member "correct") = Some (Obs.Json.Bool false)))
    Spec.workloads;
  if !failures > 0 then begin
    Printf.printf "%d selftest failures\n" !failures;
    exit 1
  end
