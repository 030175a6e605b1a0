(* [main.exe compare BASE.jsonl CHANGE.jsonl]: the verdict on a change.

   Each file holds one JSON line per untraced run ([--out FILE]).  For
   every workload x end-to-end metric, the runs of the two sides are
   paired by seed (or in file order when the seeds differ) and judged by
   the bounds BENCHMARK.json fixes and the pair rule of the benchmark's
   method:

   - better: at least 10 pairs, the change wins at least nine tenths of
     them (ties count for neither side), and the medians differ by more
     than the base runs' own interquartile distance;
   - worse: the change's median is worse than the base median by more
     than the metric's bound;
   - unresolved: the base runs spread (interquartile distance over
     median) wider than the bound, unless every change run beats every
     base run, or the change looks better on too few pairs;
   - unchanged: otherwise. *)

type run = { workload : string; seed : int; metrics : (string * float) list }

let read_runs path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | l -> lines (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  List.filter_map
    (fun line ->
      match Obs.Json.of_string line with
      | Error e -> failwith (Printf.sprintf "%s: %s" path e)
      | Ok doc when Obs.Json.member "trace" doc = Some (Obs.Json.Bool true) -> None
      | Ok doc ->
        let str k = Option.bind (Obs.Json.member k doc) Obs.Json.string_opt in
        let metrics =
          match Option.bind (Obs.Json.member "result" doc) (Obs.Json.member "metrics") with
          | Some (Obs.Json.Obj fields) ->
            List.filter_map
              (fun (name, v) ->
                Option.map (fun x -> (name, x)) (Option.bind (Obs.Json.member "value" v) Obs.Json.number_opt))
              fields
          | _ -> []
        in
        Some
          {
            workload = Option.value ~default:"" (str "workload");
            seed = Option.value ~default:0 (Option.bind (Obs.Json.member "seed" doc) Obs.Json.int_opt);
            metrics;
          })
    (lines [])

(* Bounds and directions as BENCHMARK.json states them. *)
let read_bounds path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.of_string text with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok doc ->
    Option.value ~default:[] (Option.bind (Obs.Json.member "end_to_end" doc) Obs.Json.to_list_opt)
    |> List.filter_map (fun m ->
           match
             ( Option.bind (Obs.Json.member "name" m) Obs.Json.string_opt,
               Option.bind (Obs.Json.member "better" m) Obs.Json.string_opt,
               Option.bind (Obs.Json.member "bound" m) Obs.Json.number_opt )
           with
           | Some name, Some better, Some bound -> Some (name, (better = "higher", bound))
           | _ -> None)

let pairs base change =
  let seeds l = List.sort compare (List.map (fun r -> r.seed) l) in
  if seeds base = seeds change then
    List.filter_map
      (fun b -> Option.map (fun c -> (b, c)) (List.find_opt (fun c -> c.seed = b.seed) change))
      base
  else
    let n = min (List.length base) (List.length change) in
    List.combine (List.filteri (fun i _ -> i < n) base) (List.filteri (fun i _ -> i < n) change)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let judge ~higher ~bound base change ps =
  let gain a b = if higher then b -. a else a -. b in
  let mb = Util.median base and mc = Util.median change in
  let q1, q3 = Util.quartiles base in
  let spread = Util.ratio (q3 -. q1) (Float.abs mb) in
  let wins = List.length (List.filter (fun (b, c) -> gain b c > 0.0) ps) in
  let n = List.length ps in
  let pair_rule =
    n >= 10 && float_of_int wins >= 0.9 *. float_of_int n && gain mb mc > q3 -. q1
  in
  let all_better =
    List.for_all (fun c -> List.for_all (fun b -> gain b c > 0.0) base) change
  in
  let verdict =
    if spread > bound then if all_better && pair_rule then Better else Unresolved
    else if gain mb mc < -.bound *. Float.abs mb then Worse
    else if pair_rule then Better
    else if gain mb mc > q3 -. q1 then Unresolved
    else Unchanged
  in
  (verdict, mb, mc, spread, wins, n)

let run ~benchmark base_path change_path =
  let bounds = read_bounds benchmark in
  let base = read_runs base_path and change = read_runs change_path in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (base @ change)) in
  let rows =
    List.concat_map
      (fun w ->
        let b = List.filter (fun r -> r.workload = w) base in
        let c = List.filter (fun r -> r.workload = w) change in
        let ps = pairs b c in
        List.filter_map
          (fun (metric, (higher, bound)) ->
            let values l = List.filter_map (fun r -> List.assoc_opt metric r.metrics) l in
            let paired =
              List.filter_map
                (fun (x, y) ->
                  match (List.assoc_opt metric x.metrics, List.assoc_opt metric y.metrics) with
                  | Some a, Some b -> Some (a, b)
                  | _ -> None)
                ps
            in
            if values b = [] || values c = [] then None
            else
              let v, mb, mc, spread, wins, n = judge ~higher ~bound (values b) (values c) paired in
              Some (w, metric, v, mb, mc, spread, bound, wins, n))
          bounds)
      workloads
  in
  Printf.printf "%-8s %-20s %-11s %14s %14s %8s %6s %6s\n" "workload" "metric" "verdict" "base median"
    "change median" "spread" "bound" "wins";
  List.iter
    (fun (w, m, v, mb, mc, spread, bound, wins, n) ->
      Printf.printf "%-8s %-20s %-11s %14.4f %14.4f %8.4f %6.2f %3d/%-3d\n" w m (verdict_to_string v) mb
        mc spread bound wins n)
    rows;
  let doc =
    Obs.Json.Obj
      [
        ( "rows",
          Obs.Json.List
            (List.map
               (fun (w, m, v, mb, mc, spread, bound, wins, n) ->
                 Obs.Json.Obj
                   [
                     ("workload", Obs.Json.String w);
                     ("metric", Obs.Json.String m);
                     ("verdict", Obs.Json.String (verdict_to_string v));
                     ("base_median", Obs.Json.Float mb);
                     ("change_median", Obs.Json.Float mc);
                     ("base_spread", Obs.Json.Float spread);
                     ("bound", Obs.Json.Float bound);
                     ("wins", Obs.Json.Int wins);
                     ("pairs", Obs.Json.Int n);
                   ])
               rows) );
      ]
  in
  print_endline (Obs.Json.to_string doc);
  if List.exists (fun (_, _, v, _, _, _, _, _, _) -> v = Worse) rows then exit 1
