type hist = {
  h_name : string;
  bounds : float array;
  counts : int array;
  mutable h_total : int;
  (* One-element float array: a mutable float field in this mixed record
     would box on every write, and observe sits on the recording path. *)
  h_sum : float array;
}

let hist name bounds =
  {
    h_name = name;
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    h_total = 0;
    h_sum = [| 0.0 |];
  }

(* Linear scan: the bucket lists are a dozen entries, and a scan over a
   small float array allocates nothing. *)
let rec bucket_index bounds v i =
  if i >= Array.length bounds || v <= bounds.(i) then i
  else bucket_index bounds v (i + 1)

(* Int-valued observations avoid the boxed-float argument a call to
   [observe] would cost under the non-flambda compiler: the conversion
   stays in unboxed comparison/addition context. *)
let rec bucket_index_int bounds n i =
  if i >= Array.length bounds || float_of_int n <= bounds.(i) then i
  else bucket_index_int bounds n (i + 1)

let observe_int h n =
  let i = bucket_index_int h.bounds n 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_total <- h.h_total + 1;
  h.h_sum.(0) <- h.h_sum.(0) +. float_of_int n

let observe h v =
  let i = bucket_index h.bounds v 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_total <- h.h_total + 1;
  h.h_sum.(0) <- h.h_sum.(0) +. v

let max_slaves = 32

type t = {
  mutable issued : int;
  mutable rejected : int;
  mutable finished : int;
  mutable errored : int;
  mutable beats : int;
  mutable wait_stalls : int;
  (* Events the sink could not retain because its ring was full.  A
     truncated trace that does not say so is worse than no trace. *)
  mutable dropped : int;
  wait_by_slave : int array;
  latency : hist;
  occupancy : hist;
  outstanding : hist;
  pj_per_beat : hist;
}

let latency_bounds = [| 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]
let occupancy_bounds = [| 0.; 1.; 2.; 4.; 8.; 16. |]
let outstanding_bounds = [| 1.; 2.; 4.; 8.; 12. |]
let pj_bounds = [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500. |]

let create () =
  {
    issued = 0;
    rejected = 0;
    finished = 0;
    errored = 0;
    beats = 0;
    wait_stalls = 0;
    dropped = 0;
    wait_by_slave = Array.make max_slaves 0;
    latency = hist "txn-latency-cycles" latency_bounds;
    occupancy = hist "request-queue-depth" occupancy_bounds;
    outstanding = hist "master-outstanding" outstanding_bounds;
    pj_per_beat = hist "bus-pj-per-beat" pj_bounds;
  }

let incr_issued t = t.issued <- t.issued + 1
let incr_rejected t = t.rejected <- t.rejected + 1
let incr_finished t = t.finished <- t.finished + 1
let incr_errored t = t.errored <- t.errored + 1
let incr_beats t = t.beats <- t.beats + 1
let incr_dropped t = t.dropped <- t.dropped + 1

let add_wait_stall t ~slave =
  t.wait_stalls <- t.wait_stalls + 1;
  if slave >= 0 && slave < max_slaves then
    t.wait_by_slave.(slave) <- t.wait_by_slave.(slave) + 1

let observe_latency t ~cycles = observe_int t.latency cycles
let observe_occupancy t ~depth = observe_int t.occupancy depth
let observe_outstanding t ~depth = observe_int t.outstanding depth
let observe_pj_per_beat t v = observe t.pj_per_beat v

let issued t = t.issued
let rejected t = t.rejected
let finished t = t.finished
let errored t = t.errored
let beats t = t.beats
type hist_view = {
  name : string;
  bounds : float array;
  counts : int array;
  total : int;
  sum : float;
  mean : float;
}

type view = { counters : (string * int) list; hists : hist_view list }

let hist_view h =
  {
    name = h.h_name;
    bounds = Array.copy h.bounds;
    counts = Array.copy h.counts;
    total = h.h_total;
    sum = h.h_sum.(0);
    mean =
      (if h.h_total = 0 then 0.0 else h.h_sum.(0) /. float_of_int h.h_total);
  }

let view t =
  let slave_counters =
    List.filter_map
      (fun i ->
        if t.wait_by_slave.(i) > 0 then
          Some (Printf.sprintf "wait-stalls/slave%d" i, t.wait_by_slave.(i))
        else None)
      (List.init max_slaves Fun.id)
  in
  {
    counters =
      [
        ("txns-issued", t.issued);
        ("txns-rejected", t.rejected);
        ("txns-finished", t.finished);
        ("txns-errored", t.errored);
        ("beats", t.beats);
        ("wait-stalls", t.wait_stalls);
        ("events-dropped", t.dropped);
      ]
      @ slave_counters;
    hists =
      [
        hist_view t.latency;
        hist_view t.occupancy;
        hist_view t.outstanding;
        hist_view t.pj_per_beat;
      ];
  }

let bucket_label bounds i =
  let n = Array.length bounds in
  let num v =
    if Float.is_integer v then string_of_int (int_of_float v)
    else Printf.sprintf "%g" v
  in
  if i = 0 then Printf.sprintf "<=%s" (num bounds.(0))
  else if i = n then Printf.sprintf ">%s" (num bounds.(n - 1))
  else Printf.sprintf "%s-%s" (num bounds.(i - 1)) (num bounds.(i))

let hist_view_to_json (h : hist_view) =
  Json.Obj
    [
      ("name", Json.String h.name);
      ("total", Json.Int h.total);
      ("sum", Json.Float h.sum);
      ("mean", Json.Float h.mean);
      ( "buckets",
        Json.List
          (List.init (Array.length h.counts) (fun i ->
               Json.Obj
                 [
                   ("le", Json.String (bucket_label h.bounds i));
                   ("count", Json.Int h.counts.(i));
                 ])) );
    ]

(* Upper-bound estimate of the p-th percentile (p in 0..100): the bound
   of the bucket where the cumulative count crosses the rank.  The
   overflow bucket has no upper bound; report twice the last bound so
   the estimate stays finite and visibly saturated. *)
let percentile (h : hist_view) p =
  if h.total = 0 then 0.0
  else begin
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.total)))
    in
    let n = Array.length h.bounds in
    let rec go i acc =
      if i >= Array.length h.counts then h.bounds.(n - 1) *. 2.0
      else
        let acc = acc + h.counts.(i) in
        if acc >= rank then
          if i < n then h.bounds.(i) else h.bounds.(n - 1) *. 2.0
        else go (i + 1) acc
    in
    go 0 0
  end

let to_json t =
  let v = view t in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) v.counters) );
      ("histograms", Json.List (List.map hist_view_to_json v.hists));
    ]
