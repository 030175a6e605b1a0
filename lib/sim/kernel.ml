type process = {
  name : string;
  rising : bool;
  index : int;  (* registration order on its edge *)
  owner : t;
  mutable body : t -> unit;  (* [no_body] for a bodyless slot *)
  mutable parked : bool;
  mutable runs : int;
}

(* The unparked processes of one edge, kept sorted by registration index
   in a buffer sized to every process registered on the edge, so park
   and unpark shift a few pointers and never allocate.  While the edge
   runs, [cur] is the index of the process last started and [next] the
   buffer position of the next one to run; outside the edge [cur] is
   [max_int], so every slot counts as passed. *)
and lane = {
  mutable live : process array;
  mutable n : int;
  mutable registered : int;
  mutable next : int;
  mutable cur : int;
}

and t = {
  mutable now : int;
  mutable edges : int;  (* rising edges begun since creation *)
  rising_lane : lane;
  falling_lane : lane;
  mutable procs_rev : process list;
  mutable stop_requested : bool;
}

type handle = process

let no_body (_ : t) = ()
let bound p = p.body != no_body

let lane () = { live = [||]; n = 0; registered = 0; next = 0; cur = max_int }

let create () =
  {
    now = 0;
    edges = 0;
    rising_lane = lane ();
    falling_lane = lane ();
    procs_rev = [];
    stop_requested = false;
  }

let now k = k.now
let lane_of p = if p.rising then p.owner.rising_lane else p.owner.falling_lane

let unpark p =
  if p.parked && bound p then begin
    p.parked <- false;
    let l = lane_of p in
    if l.n = Array.length l.live then begin
      let grown = Array.make (max 4 l.registered) p in
      Array.blit l.live 0 grown 0 l.n;
      l.live <- grown
    end;
    let pos = ref l.n in
    while !pos > 0 && l.live.(!pos - 1).index > p.index do
      l.live.(!pos) <- l.live.(!pos - 1);
      decr pos
    done;
    l.live.(!pos) <- p;
    l.n <- l.n + 1;
    (* A slot the running edge has already passed waits for the next
       edge, exactly where the process would have run. *)
    if p.index <= l.cur then l.next <- l.next + 1
  end

let park p =
  if not p.parked then begin
    p.parked <- true;
    let l = lane_of p in
    let pos = ref 0 in
    while l.live.(!pos) != p do
      incr pos
    done;
    Array.blit l.live (!pos + 1) l.live !pos (l.n - !pos - 1);
    l.n <- l.n - 1;
    if p.index <= l.cur then l.next <- l.next - 1
  end

let register k ~rising ~name body =
  let l = if rising then k.rising_lane else k.falling_lane in
  let p =
    { name; rising; index = l.registered; owner = k; body; parked = true;
      runs = 0 }
  in
  l.registered <- l.registered + 1;
  k.procs_rev <- p :: k.procs_rev;
  p

let slot k ~name = register k ~rising:true ~name no_body

let bind p body =
  if bound p then invalid_arg "Sim.Kernel.bind: already bound";
  p.body <- body

let on_rising k ~name body = unpark (register k ~rising:true ~name body)
let on_falling k ~name body = unpark (register k ~rising:false ~name body)

let find k ~name =
  match List.find_opt (fun p -> p.name = name) (List.rev k.procs_rev) with
  | Some p -> p
  | None -> invalid_arg ("Sim.Kernel.find: no process " ^ name)

let edges p =
  if not p.rising then invalid_arg "Sim.Kernel.edges: falling-edge handle";
  let k = p.owner in
  if p.index > k.rising_lane.cur then k.edges - 1 else k.edges

let stop k = k.stop_requested <- true
let stopped k = k.stop_requested

let reset k =
  k.now <- 0;
  k.stop_requested <- false;
  (* A process that raised mid-edge leaves its lane marked running. *)
  k.rising_lane.cur <- max_int;
  k.falling_lane.cur <- max_int

let run_lane k l =
  l.next <- 0;
  l.cur <- -1;
  while l.next < l.n do
    let p = Array.unsafe_get l.live l.next in
    l.cur <- p.index;
    l.next <- l.next + 1;
    p.runs <- p.runs + 1;
    p.body k
  done;
  l.cur <- max_int

let step k =
  k.edges <- k.edges + 1;
  run_lane k k.rising_lane;
  run_lane k k.falling_lane;
  k.now <- k.now + 1

(* Recursive at top level, so a call allocates no loop closure. *)
let rec run k ~cycles =
  if cycles > 0 && not k.stop_requested then begin
    step k;
    run k ~cycles:(cycles - 1)
  end

let run_until k ?(max_cycles = 1_000_000) done_ =
  let start = k.now in
  let rec loop () =
    if done_ () || k.stop_requested then k.now - start
    else if k.now - start >= max_cycles then
      failwith
        (Printf.sprintf "Sim.Kernel.run_until: no completion after %d cycles"
           max_cycles)
    else begin
      step k;
      loop ()
    end
  in
  loop ()

(* Rising edge first, each edge in registration order. *)
let in_edge_order k =
  let r, f = List.partition (fun p -> p.rising) (List.rev k.procs_rev) in
  let r = List.filter bound r in
  r @ f

let process_names k = List.map (fun p -> p.name) (in_edge_order k)
let runs k = List.map (fun p -> (p.name, p.runs)) (in_edge_order k)
