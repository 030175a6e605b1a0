type mode = [ `Serial | `Pipelined ]

type t = {
  port : Ec.Port.t;
  mutable sink : Obs.Sink.t option;  (* the run's, set when armed *)
  mutable mode : mode;
  keep_results : bool;
  ids : Ec.Txn.Id_gen.gen;
  mutable remaining : Ec.Trace.item list;
  mutable gap_left : int;
  mutable to_submit : Ec.Txn.t option;  (* instantiated, not yet accepted *)
  outstanding : Ec.Txn.t Ec.Id_store.t;  (* by transaction id *)
  mutable results_rev : Ec.Txn.t list;
}

let finished t =
  t.remaining = [] && t.to_submit = None && Ec.Id_store.is_empty t.outstanding

let record_completion t txn =
  if t.keep_results then t.results_rev <- txn :: t.results_rev

(* Collect finished outstanding transactions.  In-place sweep: a removal
   swaps the last entry into the vacated slot, so the index only advances
   past entries that stay. *)
let sweep t =
  let i = ref 0 in
  while !i < Ec.Id_store.length t.outstanding do
    let txn = Ec.Id_store.value_at t.outstanding !i in
    match Ec.Port.take t.port txn.Ec.Txn.id with
    | Ec.Port.Pending -> incr i
    | Ec.Port.Done | Ec.Port.Failed ->
      record_completion t txn;
      Ec.Id_store.remove_at t.outstanding !i
  done

(* Load the next trace item into the submit slot, arming its gap. *)
let advance t =
  match t.remaining with
  | [] -> ()
  | item :: rest ->
    t.remaining <- rest;
    let it = Ec.Trace.instantiate t.ids item in
    t.gap_left <- it.Ec.Trace.gap;
    t.to_submit <- Some it.Ec.Trace.txn

let try_submit t =
  match t.to_submit with
  | None -> ()
  | Some txn ->
    if t.gap_left > 0 then t.gap_left <- t.gap_left - 1
    else if t.port.Ec.Port.try_submit txn then begin
      Ec.Id_store.set t.outstanding txn.Ec.Txn.id txn;
      (match t.sink with
      | None -> ()
      | Some s ->
        Obs.Sink.master_outstanding s ~depth:(Ec.Id_store.length t.outstanding));
      t.to_submit <- None;
      advance t
    end

let step t _kernel =
  sweep t;
  match t.mode with
  | `Pipelined -> try_submit t
  | `Serial -> if Ec.Id_store.is_empty t.outstanding then try_submit t

let create ~kernel ~port ?(name = "trace-master") ?(mode = `Pipelined)
    ?(keep_results = false) trace =
  let t =
    {
      port;
      sink = None;
      mode;
      keep_results;
      ids = Ec.Txn.Id_gen.create ();
      remaining = trace;
      gap_left = 0;
      to_submit = None;
      outstanding =
        Ec.Id_store.create ~dummy:(Ec.Txn.single_read ~id:(-1) 0) ();
      results_rev = [];
    }
  in
  advance t;
  Sim.Kernel.on_rising kernel ~name (step t);
  t

let results t = List.rev t.results_rev

let reset ?mode ~sink t trace =
  (match mode with Some m -> t.mode <- m | None -> ());
  t.sink <- sink;
  Ec.Txn.Id_gen.reset t.ids;
  t.remaining <- trace;
  t.gap_left <- 0;
  t.to_submit <- None;
  Ec.Id_store.clear t.outstanding;
  t.results_rev <- [];
  (* Re-arm exactly like [create]: the first item moves into the submit
     slot before the first step. *)
  advance t

let run t ~kernel ?(max_cycles = 2_000_000) () =
  Sim.Kernel.run_until kernel ~max_cycles (fun () -> finished t)
