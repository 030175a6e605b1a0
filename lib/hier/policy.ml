type trigger =
  | Addr_range of { lo : int; hi : int; level : Level.t }
  | Txn_window of { lo : int; hi : int; level : Level.t }
  | Every of { period : int; length : int; level : Level.t }
  | Energy_rate_above of { pj_per_cycle : float; level : Level.t }

type observation = { txn_index : int; addr : int; pj_per_cycle : float }

type t = {
  base : Level.t;
  triggers : trigger list;
  min_window : int;
  max_window : int option;
}

let triggered ?(min_window = 1) ?max_window ~base triggers =
  if min_window < 1 then invalid_arg "Hier.Policy.triggered: min_window < 1";
  (match max_window with
  | Some m when m < min_window ->
    invalid_arg "Hier.Policy.triggered: max_window < min_window"
  | _ -> ());
  { base; triggers; min_window; max_window }

let constant base = triggered ~base []

let trigger_fires obs = function
  | Addr_range { lo; hi; _ } -> obs.addr >= lo && obs.addr < hi
  | Txn_window { lo; hi; _ } -> obs.txn_index >= lo && obs.txn_index < hi
  | Every { period; length; _ } -> obs.txn_index mod period < length
  | Energy_rate_above { pj_per_cycle; _ } -> obs.pj_per_cycle > pj_per_cycle

let trigger_level = function
  | Addr_range { level; _ }
  | Txn_window { level; _ }
  | Every { level; _ }
  | Energy_rate_above { level; _ } -> level

let levels t =
  let named = t.base :: List.map trigger_level t.triggers in
  List.filter (fun l -> List.mem l named) Level.[ Rtl; L1; L2; L3 ]

let decide t obs =
  match List.find_opt (trigger_fires obs) t.triggers with
  | Some trig -> trigger_level trig
  | None -> t.base

let compile_window t ~pj_per_cycle =
  let const level ~txn_index:_ ~addr:_ = level in
  (* First firing trigger wins, as in [decide].  The energy-rate trigger
     compares against the previous window's rate, so within one window
     it either always fires (a constant decision shadowing the rest of
     the list) or never (dropped). *)
  let rec build = function
    | [] -> const t.base
    | trigger :: rest -> (
      let tail = build rest in
      match trigger with
      | Addr_range { lo; hi; level } ->
        fun ~txn_index ~addr ->
          if addr >= lo && addr < hi then level else tail ~txn_index ~addr
      | Txn_window { lo; hi; level } ->
        fun ~txn_index ~addr ->
          if txn_index >= lo && txn_index < hi then level
          else tail ~txn_index ~addr
      | Every { period; length; level } ->
        fun ~txn_index ~addr ->
          if txn_index mod period < length then level
          else tail ~txn_index ~addr
      | Energy_rate_above { pj_per_cycle = threshold; level } ->
        if pj_per_cycle > threshold then const level else tail)
  in
  build t.triggers

let to_string { base; triggers; min_window; max_window } =
  Printf.sprintf "policy(base=%s, %d triggers, window=%d..%s)"
    (Level.to_string base) (List.length triggers) min_window
    (match max_window with Some m -> string_of_int m | None -> "inf")

let for_exploration () =
  triggered ~min_window:64 ~max_window:512 ~base:Level.L2
    [
      Txn_window { lo = 0; hi = 512; level = Level.L1 };
      Every { period = 768; length = 192; level = Level.L1 };
      Energy_rate_above { pj_per_cycle = 8.0; level = Level.L1 };
    ]
