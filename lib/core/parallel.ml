let default_domains () = max 1 (Domain.recommended_domain_count ())

(* Persistent worker pool.  Spawning a domain costs far more than a
   small simulation, so sweep drivers that issue many parallel maps
   (the exploration grid, the accuracy tables) keep one set of domains
   alive and push batches at them.  A batch is a closure that every
   member runs to completion; the work-stealing index inside it makes
   joint execution safe.  Generations tell a worker whether the current
   batch is new to it: a worker that oversleeps a whole batch simply
   sees a later generation and runs that instead — the stolen-index loop
   it missed has no items left, so nothing is lost or run twice. *)
type pool = {
  size : int;  (* total participants, including the submitting caller *)
  mutex : Mutex.t;
  work : Condition.t;  (* new batch published *)
  idle : Condition.t;  (* a worker left the batch; caller waits active=0 *)
  mutable gen : int;
  mutable batch : (unit -> unit) option;  (* kept set; gen is the signal *)
  mutable active : int;
  mutable shutdown : bool;
}

let rec worker_loop p ~seen =
  Mutex.lock p.mutex;
  while (not p.shutdown) && p.gen = seen do
    Condition.wait p.work p.mutex
  done;
  if p.shutdown then Mutex.unlock p.mutex
  else begin
    let seen = p.gen in
    let body = Option.get p.batch in
    p.active <- p.active + 1;
    Mutex.unlock p.mutex;
    (* The batch bodies built by [map] never raise (failures are routed
       through an atomic); the handler only keeps [active] honest if
       that invariant is ever broken. *)
    (try body () with _ -> ());
    Mutex.lock p.mutex;
    p.active <- p.active - 1;
    if p.active = 0 then Condition.broadcast p.idle;
    Mutex.unlock p.mutex;
    worker_loop p ~seen
  end

(* Publish [body], run it as the caller's own share, then wait for every
   worker that joined to leave.  Completion is airtight because a worker
   claims work only after incrementing [active]: when the caller's own
   run of [body] returns, all items are claimed, and each claim belongs
   to the caller or to a counted worker. *)
let run_batch p body =
  Mutex.lock p.mutex;
  p.batch <- Some body;
  p.gen <- p.gen + 1;
  Condition.broadcast p.work;
  Mutex.unlock p.mutex;
  body ();
  Mutex.lock p.mutex;
  while p.active > 0 do
    Condition.wait p.idle p.mutex
  done;
  Mutex.unlock p.mutex

let with_pool ~domains f =
  let size = max 1 domains in
  let p =
    {
      size;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      gen = 0;
      batch = None;
      active = 0;
      shutdown = false;
    }
  in
  let spawned =
    Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p ~seen:0))
  in
  let finish () =
    Mutex.lock p.mutex;
    p.shutdown <- true;
    Condition.broadcast p.work;
    Mutex.unlock p.mutex;
    Array.iter Domain.join spawned
  in
  match f p with
  | v ->
    finish ();
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish ();
    Printexc.raise_with_backtrace e bt

(* Work-stealing by atomic index: workers pull the next unclaimed item, so
   an expensive item (a gate-level run) does not serialize a whole chunk.
   Results land by index, which makes the output order — and therefore
   every reported number — independent of domain scheduling. *)
let map ?domains ?pool f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let wanted =
    match (pool, domains) with
    | Some p, _ -> p.size
    | None, Some d -> d
    | None, None -> default_domains ()
  in
  let workers = min (max 1 wanted) n in
  if workers <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let rec body () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f items.(i) with
        | v -> results.(i) <- Some v
        | exception e ->
          (* Keep the first failure; let other workers drain and exit. *)
          ignore
            (Atomic.compare_and_set failure None
               (Some (e, Printexc.get_raw_backtrace ())));
          Atomic.set next n);
        body ()
      end
    in
    (match pool with
    | Some p -> run_batch p body
    | None ->
      let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn body) in
      body ();
      Array.iter Domain.join spawned);
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map
         (function Some v -> v | None -> assert false (* all indices claimed *))
         results)
  end
