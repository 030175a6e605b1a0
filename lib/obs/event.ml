type kind =
  | Txn_issued
  | Txn_rejected
  | Txn_granted
  | Data_beat
  | Txn_finished
  | Txn_error
  | Window_open
  | Window_close
  | Level_switch
  | Energy_sample

type t = {
  kind : kind;
  cycle : int;
  id : int;
  arg : int;
  arg2 : int;
  value : float;
}

let kind_code = function
  | Txn_issued -> 0
  | Txn_rejected -> 1
  | Txn_granted -> 2
  | Data_beat -> 3
  | Txn_finished -> 4
  | Txn_error -> 5
  | Window_open -> 6
  | Window_close -> 7
  | Level_switch -> 8
  | Energy_sample -> 9

let kind_of_code = function
  | 0 -> Txn_issued
  | 1 -> Txn_rejected
  | 2 -> Txn_granted
  | 3 -> Data_beat
  | 4 -> Txn_finished
  | 5 -> Txn_error
  | 6 -> Window_open
  | 7 -> Window_close
  | 8 -> Level_switch
  | 9 -> Energy_sample
  | c -> invalid_arg (Printf.sprintf "Obs.Event.kind_of_code: %d" c)

let level_name = function
  | 0 -> "gate-level"
  | 1 -> "l1"
  | 2 -> "l2"
  | c -> Printf.sprintf "level-%d" c

let category_name = function
  | 0 -> "instr-read"
  | 1 -> "data-read"
  | 2 -> "write"
  | c -> Printf.sprintf "cat-%d" c
