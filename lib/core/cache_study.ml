type row = {
  lines : int option;
  cycles : int;
  bus_pj : float;
  cache_pj : float;
  total_pj : float;
  hit_rate_pct : float;
  splice : Hier.Splice.t option;
}

type t = { workload : string; rows : row list }

let cache_figures icache =
  match icache with
  | None -> (0.0, 0.0)
  | Some c ->
    let hits = Soc.Icache.hits c and misses = Soc.Icache.misses c in
    let accesses = hits + misses in
    ( Power.Component.energy_pj (Soc.Icache.component c),
      if accesses = 0 then 0.0
      else float_of_int hits /. float_of_int accesses *. 100.0 )

(* Adaptive variant: capture the post-cache bus traffic once at the gate
   level (that run also yields the cache's own figures), then replay it
   through the mixed-level engine.  Cycles are the spliced bus-replay
   timeline, not a CPU run. *)
let run_adaptive_one ~pool ~policy program lines =
  let trace, icache = Runner.capture_with_icache ?icache_lines:lines program in
  let ar =
    Runner.run_adaptive ~pool ~policy
      ~init:(fun system ->
        Runner.fill_memories system;
        Soc.Platform.load_program (System.platform system) program)
      trace
  in
  let cache_pj, hit_rate_pct = cache_figures icache in
  {
    lines;
    cycles = ar.Runner.cycles;
    bus_pj = ar.Runner.bus_pj;
    cache_pj;
    total_pj = ar.Runner.bus_pj +. ar.Runner.component_pj +. cache_pj;
    hit_rate_pct;
    splice = Some ar.Runner.splice;
  }

(* This study stays on the interpreted paths deliberately: every row is
   a CPU-driven run (the bus traffic depends on the cache size under
   test), and the adaptive variant switches levels mid-run — neither is
   a fixed trace that a {!Compile.Plan.t} could capture once and
   re-evaluate.  Session pooling is the applicable reuse here. *)
let run ?(level = Level.L1) ?policy
    ?(sizes = [ None; Some 1; Some 2; Some 4; Some 16 ]) ?(name = "program")
    program =
  let pool = Pool.create () in
  let one lines =
    let run =
      Runner.run_program ~level ?icache_lines:lines ~pool program
    in
    (match run.Runner.fault with
    | None -> ()
    | Some _ -> failwith "Core.Cache_study: workload faulted");
    let r = run.Runner.result in
    let cache_pj, hit_rate_pct = cache_figures run.Runner.icache in
    {
      lines;
      cycles = r.Runner.cycles;
      bus_pj = r.Runner.bus_pj;
      cache_pj;
      total_pj = r.Runner.bus_pj +. r.Runner.component_pj +. cache_pj;
      hit_rate_pct;
      splice = None;
    }
  in
  let one =
    match policy with
    | None -> one
    | Some policy -> run_adaptive_one ~pool ~policy program
  in
  { workload = name; rows = List.map one sizes }

let render t =
  let body =
    List.map
      (fun r ->
        [
          (match r.lines with
          | None -> "no cache"
          | Some n -> Printf.sprintf "%d lines (%d B)" n (n * Soc.Icache.line_bytes));
          string_of_int r.cycles;
          Printf.sprintf "%.1f" r.bus_pj;
          Printf.sprintf "%.1f" r.cache_pj;
          Printf.sprintf "%.1f" r.total_pj;
          Printf.sprintf "%.1f%%" r.hit_rate_pct;
        ])
      t.rows
  in
  Printf.sprintf "Instruction cache exploration: %s\n%s" t.workload
    (Report.table
       ~header:[ "i-cache"; "cycles"; "bus pJ"; "cache pJ"; "total pJ"; "hit rate" ]
       body)
