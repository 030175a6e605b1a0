type poll = Pending | Done | Failed

type t = {
  mutable try_submit : Txn.t -> bool;
  mutable poll : int -> poll;
  mutable retire : int -> unit;
}

let completed t id =
  match t.poll id with Pending -> false | Done | Failed -> true

let take t id =
  match t.poll id with
  | Pending -> Pending
  | (Done | Failed) as outcome ->
    t.retire id;
    outcome

let transact ~kernel t txn =
  let accepted = ref (t.try_submit txn) in
  ignore
    (Sim.Kernel.run_until kernel ~max_cycles:100_000 (fun () ->
         if not !accepted then accepted := t.try_submit txn;
         !accepted && completed t txn.Txn.id));
  let outcome = t.poll txn.Txn.id in
  t.retire txn.Txn.id;
  outcome
