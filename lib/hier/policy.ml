type trigger =
  | Addr_range of { lo : int; hi : int; level : Level.t }
  | Cycle_window of { lo : int; hi : int; level : Level.t }
  | Txn_window of { lo : int; hi : int; level : Level.t }
  | Every of { period : int; length : int; level : Level.t }
  | Txn_rate_above of { txns_per_kcycle : float; level : Level.t }
  | Energy_rate_above of { pj_per_cycle : float; level : Level.t }

type observation = {
  txn_index : int;
  addr : int;
  cycle : int;
  txns_per_kcycle : float;
  pj_per_cycle : float;
}

type t =
  | Constant of Level.t
  | Script of (int * Level.t) list
  | Triggered of {
      base : Level.t;
      triggers : trigger list;
      min_window : int;
      max_window : int option;
    }

let constant level = Constant level

let script segments =
  if segments = [] then invalid_arg "Hier.Policy.script: empty script";
  List.iter
    (fun (n, _) ->
      if n <= 0 then invalid_arg "Hier.Policy.script: non-positive segment")
    segments;
  Script segments

let triggered ?(min_window = 1) ?max_window ~base triggers =
  if min_window < 1 then invalid_arg "Hier.Policy.triggered: min_window < 1";
  (match max_window with
  | Some m when m < min_window ->
    invalid_arg "Hier.Policy.triggered: max_window < min_window"
  | _ -> ());
  Triggered { base; triggers; min_window; max_window }

let trigger_fires obs = function
  | Addr_range { lo; hi; _ } -> obs.addr >= lo && obs.addr < hi
  | Cycle_window { lo; hi; _ } -> obs.cycle >= lo && obs.cycle < hi
  | Txn_window { lo; hi; _ } -> obs.txn_index >= lo && obs.txn_index < hi
  | Every { period; length; _ } -> obs.txn_index mod period < length
  | Txn_rate_above { txns_per_kcycle; _ } ->
    obs.txns_per_kcycle > txns_per_kcycle
  | Energy_rate_above { pj_per_cycle; _ } -> obs.pj_per_cycle > pj_per_cycle

let trigger_level = function
  | Addr_range { level; _ }
  | Cycle_window { level; _ }
  | Txn_window { level; _ }
  | Every { level; _ }
  | Txn_rate_above { level; _ }
  | Energy_rate_above { level; _ } -> level

let levels t =
  let named =
    match t with
    | Constant level -> [ level ]
    | Script segments -> List.map snd segments
    | Triggered { base; triggers; _ } -> base :: List.map trigger_level triggers
  in
  List.filter (fun l -> List.mem l named) Level.[ Rtl; L1; L2; L3 ]

let script_level segments index =
  let rec walk acc = function
    | [] -> assert false
    | [ (_, level) ] -> level (* past the script end: hold the last level *)
    | (n, level) :: rest ->
      if index < acc + n then level else walk (acc + n) rest
  in
  walk 0 segments

let decide t obs =
  match t with
  | Constant level -> level
  | Script segments -> script_level segments obs.txn_index
  | Triggered { base; triggers; _ } -> (
    match List.find_opt (trigger_fires obs) triggers with
    | Some trig -> trigger_level trig
    | None -> base)

let needs_cycle = function
  | Constant _ | Script _ -> false
  | Triggered { triggers; _ } ->
    List.exists (function Cycle_window _ -> true | _ -> false) triggers

let compile_window t ~txns_per_kcycle ~pj_per_cycle =
  let const level ~txn_index:_ ~addr:_ ~cycle:_ = level in
  match t with
  | Constant level -> const level
  | Script segments ->
    fun ~txn_index ~addr:_ ~cycle:_ -> script_level segments txn_index
  | Triggered { base; triggers; _ } ->
    (* First firing trigger wins, as in [decide].  Rate triggers compare
       against the previous window's rates, so within one window each
       either always fires (a constant decision shadowing the rest of
       the list) or never (dropped). *)
    let rec build = function
      | [] -> const base
      | trigger :: rest -> (
        let tail = build rest in
        match trigger with
        | Addr_range { lo; hi; level } ->
          fun ~txn_index ~addr ~cycle ->
            if addr >= lo && addr < hi then level
            else tail ~txn_index ~addr ~cycle
        | Cycle_window { lo; hi; level } ->
          fun ~txn_index ~addr ~cycle ->
            if cycle >= lo && cycle < hi then level
            else tail ~txn_index ~addr ~cycle
        | Txn_window { lo; hi; level } ->
          fun ~txn_index ~addr ~cycle ->
            if txn_index >= lo && txn_index < hi then level
            else tail ~txn_index ~addr ~cycle
        | Every { period; length; level } ->
          fun ~txn_index ~addr ~cycle ->
            if txn_index mod period < length then level
            else tail ~txn_index ~addr ~cycle
        | Txn_rate_above { txns_per_kcycle = threshold; level } ->
          if txns_per_kcycle > threshold then const level else tail
        | Energy_rate_above { pj_per_cycle = threshold; level } ->
          if pj_per_cycle > threshold then const level else tail)
    in
    build triggers

let to_string = function
  | Constant level -> Printf.sprintf "constant(%s)" (Level.to_string level)
  | Script segments ->
    Printf.sprintf "script(%s)"
      (String.concat ","
         (List.map
            (fun (n, l) -> Printf.sprintf "%dx%s" n (Level.to_string l))
            segments))
  | Triggered { base; triggers; min_window; max_window } ->
    Printf.sprintf "triggered(base=%s, %d triggers, window=%d..%s)"
      (Level.to_string base) (List.length triggers) min_window
      (match max_window with Some m -> string_of_int m | None -> "inf")

let for_exploration ?(warmup = 512) ?(period = 768) ?(refine = 192) () =
  if warmup < 0 then invalid_arg "Hier.Policy.for_exploration: warmup < 0";
  if period < 1 then invalid_arg "Hier.Policy.for_exploration: period < 1";
  if refine < 0 || refine > period then
    invalid_arg "Hier.Policy.for_exploration: refine outside [0, period]";
  let refinements =
    (if warmup > 0 then [ Txn_window { lo = 0; hi = warmup; level = Level.L1 } ]
     else [])
    @ (if refine > 0 then [ Every { period; length = refine; level = Level.L1 } ]
       else [])
    @ [ Energy_rate_above { pj_per_cycle = 8.0; level = Level.L1 } ]
  in
  triggered ~min_window:64 ~max_window:512 ~base:Level.L2 refinements
