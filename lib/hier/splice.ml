type provenance = Cycle_accurate | Lumped

type seg = {
  level : Level.t;
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  profile : Power.Profile.t option;
}

type window = {
  index : int;
  level : Level.t;
  start_cycle : int;
  cycles : int;
  txns : int;
  beats : int;
  errors : int;
  bus_pj : float;
  component_pj : float;
  profile : Power.Profile.t option;
  provenance : provenance;
  err_bound_pj : float;
}

type t = {
  windows : window list;
  total_cycles : int;
  total_txns : int;
  total_beats : int;
  total_errors : int;
  total_bus_pj : float;
  total_component_pj : float;
  error_bound_pj : float;
  switches : int;
}

(* Per-level fractional energy-error bounds vs the gate-level reference.
   They envelope the Table 2 error bands of the reproduction (layer 1
   down to -12%, layer 2 up to +25%, depending on the burst mix). *)
let no_l3 () = invalid_arg "Hier.Splice.splice: layer 3 opens no windows"

let budget = function
  | Level.Rtl -> 0.0
  | Level.L1 -> 0.12
  | Level.L2 -> 0.25
  | Level.L3 -> no_l3 ()

let provenance_of_level = function
  | Level.Rtl | Level.L1 -> Cycle_accurate
  | Level.L2 -> Lumped
  | Level.L3 -> no_l3 ()

let provenance_string = function
  | Cycle_accurate -> "cycle-accurate"
  | Lumped -> "lumped"

let splice segs =
  let _, windows_rev =
    List.fold_left
      (fun (start_cycle, acc) (i, (s : seg)) ->
        let w =
          {
            index = i;
            level = s.level;
            start_cycle;
            cycles = s.cycles;
            txns = s.txns;
            beats = s.beats;
            errors = s.errors;
            bus_pj = s.bus_pj;
            component_pj = s.component_pj;
            profile = s.profile;
            provenance = provenance_of_level s.level;
            err_bound_pj = Float.abs s.bus_pj *. budget s.level;
          }
        in
        (start_cycle + s.cycles, w :: acc))
      (0, [])
      (List.mapi (fun i s -> (i, s)) segs)
  in
  let windows = List.rev windows_rev in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 windows in
  let sumf f = List.fold_left (fun acc w -> acc +. f w) 0.0 windows in
  let switches =
    match windows with
    | [] -> 0
    | first :: rest ->
      snd
        (List.fold_left
           (fun (prev, n) w -> (w.level, if w.level <> prev then n + 1 else n))
           (first.level, 0) rest)
  in
  {
    windows;
    total_cycles = sum (fun w -> w.cycles);
    total_txns = sum (fun w -> w.txns);
    total_beats = sum (fun w -> w.beats);
    total_errors = sum (fun w -> w.errors);
    total_bus_pj = sumf (fun w -> w.bus_pj);
    total_component_pj = sumf (fun w -> w.component_pj);
    error_bound_pj = sumf (fun w -> w.err_bound_pj);
    switches;
  }

(* The reconciled profile: recorded per-cycle series are copied through
   (padded with trailing idle cycles if the recording stopped early);
   windows without a recording contribute their lump spread uniformly, so
   the spliced series always spans the full spliced timeline and its
   total equals the spliced energy exactly up to float summation. *)
let profile t =
  let out = Power.Profile.create () in
  List.iter
    (fun w ->
      match w.profile with
      | Some p ->
        let recorded = min (Power.Profile.length p) w.cycles in
        for i = 0 to recorded - 1 do
          Power.Profile.push out (Power.Profile.get p i)
        done;
        for _ = recorded to w.cycles - 1 do
          Power.Profile.push out 0.0
        done
      | None ->
        if w.cycles > 0 then begin
          let per_cycle = w.bus_pj /. float_of_int w.cycles in
          for _ = 1 to w.cycles do
            Power.Profile.push out per_cycle
          done
        end)
    t.windows;
  out

let error_vs_reference t ~reference_pj =
  let err_pct =
    if reference_pj = 0.0 then 0.0
    else (t.total_bus_pj -. reference_pj) /. reference_pj *. 100.0
  in
  let within = Float.abs (t.total_bus_pj -. reference_pj) <= t.error_bound_pj in
  (err_pct, within)
