type poll = Pending | Done | Failed

type t = {
  mutable try_submit : Txn.t -> bool;
  mutable poll : int -> poll;
  mutable retire : int -> unit;
}

let submit_exn t txn =
  if not (t.try_submit txn) then
    failwith (Format.asprintf "Ec.Port.submit_exn: bus refused %a" Txn.pp txn)

let completed t id =
  match t.poll id with Pending -> false | Done | Failed -> true

let take t id =
  match t.poll id with
  | Pending -> Pending
  | (Done | Failed) as outcome ->
    t.retire id;
    outcome
