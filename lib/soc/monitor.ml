type t = {
  inner : Ec.Port.t;
  kernel : Sim.Kernel.t;
  mutable items_rev : Ec.Trace.item list;
  mutable last_accept : int option;
  mutable count : int;
  mutable rejected : int;
}

let create ~kernel inner =
  {
    inner;
    kernel;
    items_rev = [];
    last_accept = None;
    count = 0;
    rejected = 0;
  }

let port t =
  let try_submit txn =
    let accepted = t.inner.Ec.Port.try_submit txn in
    if accepted then begin
      let now = Sim.Kernel.now t.kernel in
      let gap =
        match t.last_accept with
        | None -> now
        | Some prev -> max 0 (now - prev - 1)
      in
      t.last_accept <- Some now;
      t.items_rev <- Ec.Trace.item ~gap txn :: t.items_rev;
      t.count <- t.count + 1
    end
    else
      (* Bus state `wait`: the master retries the same submission next
         cycle.  Count every refused attempt so back-pressure seen while
         tracing matches the rejected counts a replay's metrics report. *)
      t.rejected <- t.rejected + 1;
    accepted
  in
  { t.inner with Ec.Port.try_submit }

let trace t = List.rev t.items_rev
let count t = t.count
let rejected t = t.rejected
