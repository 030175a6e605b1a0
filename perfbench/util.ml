(* Clock, order statistics, process figures and the correctness ledger
   shared by the workloads. *)

(* Run records, span files and sockets live here, under the working
   directory. *)
let out_dir = ".perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))

(* Samples strictly above the nearest-rank [p]th percentile. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile as Python's [statistics.quantiles(v, n=4)]
   computes them (the "exclusive" method). *)
let quartiles l =
  let a = sorted l in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 1 then a.(0) else 0.0 in
    (v, v)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* Peak resident set size of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

(* Host speed calibration.  Other tenants of the host slow the whole
   machine down for seconds to minutes at a time.  A fixed loop that
   depends on nothing in the program, timed before every work cycle (or
   every few), slows down with them.  Times are reported at the speed of
   a host on which the loop takes [nominal_s]: each cycle's times are
   scaled by nominal / (median loop time of the five samples nearest to
   that cycle), so a phase change in mid-run is followed. *)
module Calib = struct
  let nominal_s = 0.002

  let loop () =
    let t0 = now () in
    let tbl = Hashtbl.create 1024 in
    let acc = ref 0 and x = ref 12345 in
    for i = 0 to 20_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let k = !x land 4095 in
      (match Hashtbl.find_opt tbl k with
      | Some l -> Hashtbl.replace tbl k (i :: (if List.length l > 4 then [] else l))
      | None -> Hashtbl.add tbl k [ i ]);
      acc := !acc + k
    done;
    ignore (Sys.opaque_identity !acc);
    now () -. t0

  let setup_samples : float list ref = ref []
  let cycle_samples : (int * float) list ref = ref []
  let sample_setup () = setup_samples := loop () :: !setup_samples
  let sample_cycle c = cycle_samples := (c, loop ()) :: !cycle_samples

  let setup_factor () =
    if !setup_samples = [] then 1.0 else nominal_s /. median !setup_samples

  (* The scale for every work cycle, once the run is over. *)
  let cycle_factors () =
    let a = Array.of_list (List.sort compare !cycle_samples) in
    let n = Array.length a in
    let around i =
      let lo = max 0 (min (n - 5) (i - 2)) in
      nominal_s /. median (List.init (min 5 n) (fun j -> snd a.(lo + j)))
    in
    let by_sample = Array.init n around in
    fun c ->
      (* The last sample taken at or before cycle [c]. *)
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi + 1) / 2 in
          if fst a.(mid) <= c then search mid hi else search lo (mid - 1)
      in
      if n = 0 then 1.0 else by_sample.(search 0 (n - 1))

  let median_factor () =
    if !cycle_samples = [] then 1.0 else nominal_s /. median (List.map snd !cycle_samples)
end

(* Runs [setup] [n] times and keeps the last state; the setup time
   reported is the median, so one slow start does not move it.  Each
   discarded state is torn down and collected before the next set-up, so
   the resident peak is that of one state. *)
let repeated_setup n setup =
  let timed () =
    Gc.compact ();
    let st, dt = time setup in
    Calib.sample_setup ();
    (st, dt)
  in
  let times =
    List.init (n - 1) (fun _ ->
        let (_, teardown), dt = timed () in
        teardown ();
        dt)
  in
  let (state, _), dt = timed () in
  Gc.compact ();
  (state, median (dt :: times))

(* --- correctness ledger --------------------------------------------- *)

type checks = {
  mutable passed : int;
  mutable failures : string list;
  mutable inject : bool;
      (** perturb the next compared value, to prove a mismatch is caught *)
}

let checks ~inject = { passed = 0; failures = []; inject }

let check c name ok =
  if ok then c.passed <- c.passed + 1 else c.failures <- name :: c.failures

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Bit-for-bit comparison of two figure lists (ints travel as floats,
   exact below 2^53). *)
let same c name ~expected ~actual =
  let actual =
    match actual with
    | x :: rest when c.inject ->
      c.inject <- false;
      Float.succ x :: rest
    | l -> l
  in
  check c name
    (List.length expected = List.length actual
    && List.for_all2 bits_equal expected actual)

(* A digest of simulated statistics, built as results arrive. *)
module Digest_acc = struct
  type t = Buffer.t

  let create () = Buffer.create 4096

  let add t ~cycles ~txns ~pj =
    Buffer.add_string t (Printf.sprintf "%d/%d/%h;" cycles txns pj)

  let add_float t f = Buffer.add_string t (Printf.sprintf "%h;" f)

  let value t = Digest.to_hex (Digest.string (Buffer.contents t))
end

(* --- operation log --------------------------------------------------- *)

type op = {
  kind : string;
  cycle_ix : int;  (** the work cycle it ran in *)
  ms : float;  (** at reference host speed, once the run is over *)
  wall_ms : float;  (** as measured *)
  txns : int;  (** simulated transactions the operation estimated *)
  units : int;  (** results the operation delivered (points, rows...) *)
  cycles : int;
  traced : bool;
}

type oplog = { mutable ops : op list; mutable count : int }

let oplog () = { ops = []; count = 0 }

let record log op =
  log.ops <- op :: log.ops;
  log.count <- log.count + 1

let ops_of ?kind ?traced log =
  List.filter
    (fun o ->
      (match kind with None -> true | Some k -> o.kind = k)
      && match traced with None -> true | Some t -> o.traced = t)
    log.ops

let sum f l = List.fold_left (fun acc o -> acc +. f o) 0.0 l
let total_ms l = sum (fun o -> o.ms) l
let total_wall_ms l = sum (fun o -> o.wall_ms) l
let total_cycles l = sum (fun o -> float_of_int o.cycles) l
let total_txns l = sum (fun o -> float_of_int o.txns) l
let total_units l = sum (fun o -> float_of_int o.units) l

(* One measured work cycle: what it estimated and how long it took. *)
type cycle = { c_ix : int; c_txns : float; c_units : float; c_seconds : float }

(* Scales a finished run's operation and cycle times to the reference
   host speed (see [Calib]). *)
let to_reference log cycles =
  let f = Calib.cycle_factors () in
  log.ops <- List.map (fun o -> { o with ms = o.ms *. f o.cycle_ix }) log.ops;
  List.map (fun c -> { c with c_seconds = c.c_seconds *. f c.c_ix }) cycles

(* |sum(estimate) - sum(reference)| / sum(reference), in percent. *)
let energy_err_pct pairs =
  let est = List.fold_left (fun acc (e, _) -> acc +. e) 0.0 pairs in
  let ref_ = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 pairs in
  100.0 *. Float.abs (ratio (est -. ref_) ref_)

(* Whole work cycles for a run of [seconds], from the cycle rate the
   workload was sized at: the amount of work is fixed per run length,
   not per machine speed. *)
let cycles_for ~seconds ~per_second =
  max 2 (int_of_float (Float.round (seconds *. per_second)))

let seeded_rng ~seed salt = Sim.Rng.create ~seed:((seed * 7919) + salt)

(* An error-free random trace of [n] transactions; [salt] tells apart the
   traces drawn from one seed. *)
let seeded_trace ~seed salt n = Core.Workloads.random_trace ~rng:(seeded_rng ~seed salt) ~n ()

(* The standard three masters, with the CPU replaying a seeded trace. *)
let seeded_masters ~seed ~n topology =
  List.map
    (fun (kind, trace) ->
      if kind = Core.Contention.Cpu then (kind, seeded_trace ~seed 9 n) else (kind, trace))
    (Core.Contention.default_masters ~n topology)
