type tap = { cycles : unit -> int; last_cycle_pj : unit -> float }

(* Integer observer for compiled fabric plans (DESIGN.md section 18):
   fires at exactly the points where the float buckets accumulate, with
   the integers that determine each add — never touching the float path,
   so an observed run is bit-identical to an unobserved one. *)
type observer = {
  obs_cross : master:int -> burst:int -> unit;
      (* a bridge crossing accepted: the crossing-energy add *)
  obs_near : owner:int -> cycle:int -> unit;
      (* a closed near-bus cycle sampled into [owner]'s bucket *)
  obs_far : owner:int -> cycle:int -> unit;
}

type far = {
  far_port : Port.t;
  far_tap : tap option;
  window : int * int;
  latency : int;
  crossing_pj_per_beat : float;
}

(* One tracked transaction.  [bus_txn] is the remapped copy living in the
   fabric id space; read results are blitted back into the master's own
   transaction on the first completed poll. *)
type entry = {
  master : int;
  orig : Txn.t;
  bus_txn : Txn.t;
  mutable pending_cross : int;  (* crossing countdown; 0 = mature *)
  mutable submitted : bool;  (* handed to a bus port *)
  mutable on_far : bool;
  mutable counted : bool;  (* completion recorded in the counters *)
}

type t = {
  masters : int;
  arbiter : Arbiter.t;
  bus : Port.t;
  tap : tap option;
  far : far option;
  ids : Txn.Id_gen.gen;  (* fabric-owned bus-side id space *)
  maps : entry Id_store.t array;  (* per master, keyed by the master's id *)
  crossing : entry Queue.t;  (* FIFO towards the far bus *)
  buckets : float array;  (* per-master attributed energy, pJ *)
  txns : int array;
  beats : int array;
  errors : int array;
  mutable sticky_near : int;
  mutable sticky_far : int;
  mutable near_seen : int;  (* last sampled meter cycle count *)
  mutable far_seen : int;
  mutable crossings : int;
  mutable bridge_pj : float;
  mutable observer : observer option;
}

let dummy_entry =
  {
    master = -1;
    orig = Txn.single_read ~id:(-1) 0;
    bus_txn = Txn.single_read ~id:(-1) 0;
    pending_cross = 0;
    submitted = false;
    on_far = false;
    counted = false;
  }

let create ~masters ~policy ~bus ?tap ?far () =
  (match far with
  | Some f ->
    let lo, hi = f.window in
    if f.latency < 1 then invalid_arg "Fabric.create: far latency < 1";
    if hi <= lo then invalid_arg "Fabric.create: empty far window"
  | None -> ());
  {
    masters;
    arbiter = Arbiter.create ~masters ~policy;
    bus;
    tap;
    far;
    ids = Txn.Id_gen.create ();
    maps = Array.init masters (fun _ -> Id_store.create ~dummy:dummy_entry ());
    crossing = Queue.create ();
    buckets = Array.make masters 0.0;
    txns = Array.make masters 0;
    beats = Array.make masters 0;
    errors = Array.make masters 0;
    sticky_near = 0;
    sticky_far = 0;
    near_seen = 0;
    far_seen = 0;
    crossings = 0;
    bridge_pj = 0.0;
    observer = None;
  }

let set_observer t o = t.observer <- o

let remap t txn =
  let open Txn in
  create ~id:(Id_gen.fresh t.ids) ~kind:txn.kind ~dir:txn.dir ~width:txn.width
    ~addr:txn.addr ~burst:txn.burst
    ?data:(match txn.dir with Write -> Some txn.data | Read -> None)
    ()

let routes_far t txn =
  match t.far with
  | None -> false
  | Some f ->
    let lo, hi = f.window in
    txn.Txn.addr >= lo && txn.Txn.addr < hi

let try_submit t m txn =
  if not (Arbiter.attempt t.arbiter m) then false
  else begin
    let entry =
      {
        master = m;
        orig = txn;
        bus_txn = remap t txn;
        pending_cross = 0;
        submitted = false;
        on_far = false;
        counted = false;
      }
    in
    if routes_far t txn then begin
      (* The bridge accepts immediately; the transaction matures in the
         crossing queue and reaches the far bus [latency] cycles later. *)
      let f = Option.get t.far in
      entry.pending_cross <- f.latency;
      Queue.push entry t.crossing;
      Id_store.set t.maps.(m) txn.Txn.id entry;
      let cost = f.crossing_pj_per_beat *. float_of_int txn.Txn.burst in
      t.buckets.(m) <- t.buckets.(m) +. cost;
      t.bridge_pj <- t.bridge_pj +. cost;
      (match t.observer with
      | Some o -> o.obs_cross ~master:m ~burst:txn.Txn.burst
      | None -> ());
      Arbiter.commit t.arbiter m;
      true
    end
    else if t.bus.Port.try_submit entry.bus_txn then begin
      entry.submitted <- true;
      Id_store.set t.maps.(m) txn.Txn.id entry;
      t.sticky_near <- m;
      Arbiter.commit t.arbiter m;
      true
    end
    else begin
      Arbiter.note_refused t.arbiter m;
      false
    end
  end

let record_completion t entry outcome =
  if not entry.counted then begin
    entry.counted <- true;
    let m = entry.master in
    t.txns.(m) <- t.txns.(m) + 1;
    match outcome with
    | Port.Done ->
      t.beats.(m) <- t.beats.(m) + entry.bus_txn.Txn.burst;
      (* Read results live in the remapped copy; hand them back. *)
      if entry.orig.Txn.dir = Txn.Read then
        Array.blit entry.bus_txn.Txn.data 0 entry.orig.Txn.data 0
          entry.orig.Txn.burst
    | Port.Failed -> t.errors.(m) <- t.errors.(m) + 1
    | Port.Pending -> ()
  end

let poll t m id =
  let entry = Id_store.find_default t.maps.(m) id ~default:dummy_entry in
  if entry.master < 0 || not entry.submitted then Port.Pending
  else begin
    let port = if entry.on_far then (Option.get t.far).far_port else t.bus in
    let outcome = port.Port.poll entry.bus_txn.Txn.id in
    (match outcome with
    | Port.Done | Port.Failed -> record_completion t entry outcome
    | Port.Pending -> ());
    outcome
  end

let retire t m id =
  let entry = Id_store.find_default t.maps.(m) id ~default:dummy_entry in
  if entry.master < 0 then ()
  else if not entry.submitted then
    invalid_arg "Fabric.retire: transaction still crossing the bridge"
  else begin
    let port = if entry.on_far then (Option.get t.far).far_port else t.bus in
    port.Port.retire entry.bus_txn.Txn.id;
    Id_store.remove t.maps.(m) id
  end

let port t m =
  if m < 0 || m >= t.masters then invalid_arg "Fabric.port: bad master";
  {
    Port.try_submit = (fun txn -> try_submit t m txn);
    poll = (fun id -> poll t m id);
    retire = (fun id -> retire t m id);
  }

let on_rising t =
  match t.far with
  | None -> ()
  | Some f ->
    Queue.iter
      (fun e -> if e.pending_cross > 0 then e.pending_cross <- e.pending_cross - 1)
      t.crossing;
    let continue = ref true in
    while !continue && not (Queue.is_empty t.crossing) do
      let head = Queue.peek t.crossing in
      if head.pending_cross = 0 && f.far_port.Port.try_submit head.bus_txn
      then begin
        ignore (Queue.pop t.crossing);
        head.submitted <- true;
        head.on_far <- true;
        t.sticky_far <- head.master;
        t.crossings <- t.crossings + 1
      end
      else continue := false
    done

let sample t tap owner seen notify =
  let c = tap.cycles () in
  if c > seen then begin
    t.buckets.(owner) <- t.buckets.(owner) +. tap.last_cycle_pj ();
    (* The just-closed meter cycle has index [c - 1] in the bus taps'
       numbering — what a compiled plan keys the sample by. *)
    match t.observer with
    | Some o -> notify o ~owner ~cycle:(c - 1)
    | None -> ()
  end;
  c

let on_falling t =
  (match t.tap with
  | Some tap ->
    t.near_seen <-
      sample t tap t.sticky_near t.near_seen (fun o -> o.obs_near)
  | None -> ());
  (match t.far with
  | Some { far_tap = Some tap; _ } ->
    t.far_seen <- sample t tap t.sticky_far t.far_seen (fun o -> o.obs_far)
  | Some { far_tap = None; _ } | None -> ());
  Arbiter.new_cycle t.arbiter

let busy t =
  (not (Queue.is_empty t.crossing))
  || Array.exists (fun map -> not (Id_store.is_empty map)) t.maps

let master_pj t m = t.buckets.(m)

let total_pj t =
  let acc = ref 0.0 in
  for m = 0 to t.masters - 1 do
    acc := !acc +. t.buckets.(m)
  done;
  !acc

let master_txns t m = t.txns.(m)
let master_beats t m = t.beats.(m)
let master_errors t m = t.errors.(m)
let master_grants t m = Arbiter.grants t.arbiter m
let crossings t = t.crossings
let bridge_pj t = t.bridge_pj

let reset t =
  Arbiter.reset t.arbiter;
  Txn.Id_gen.reset t.ids;
  Array.iter Id_store.clear t.maps;
  Queue.clear t.crossing;
  Array.fill t.buckets 0 t.masters 0.0;
  Array.fill t.txns 0 t.masters 0;
  Array.fill t.beats 0 t.masters 0;
  Array.fill t.errors 0 t.masters 0;
  t.sticky_near <- 0;
  t.sticky_far <- 0;
  t.near_seen <- 0;
  t.far_seen <- 0;
  t.crossings <- 0;
  t.bridge_pj <- 0.0;
  t.observer <- None
