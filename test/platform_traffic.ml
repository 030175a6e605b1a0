(* The one generator of platform traffic that the cross-level and
   pooling properties share: [Core.Workloads.random_trace]'s knobs, the
   issue mode and the memory init.  Every drawn value is a legal input —
   ratios in [0, 1], at least one transaction, gaps the workload accepts
   — so no property needs [assume]. *)

module Gen = QCheck.Gen

type mem = Blank | Filled

type t = {
  n : int;
  max_gap : int;
  write_ratio : float;
  burst_ratio : float;
  subword_ratio : float;
  seed : int;
  mode : Soc.Trace_master.mode;
  mem : mem;
}

(* Ratios are drawn in eighths, so a printed case reproduces exactly. *)
let ratio = Gen.map (fun k -> float_of_int k /. 8.0) (Gen.int_bound 8)

let gen ~max_n ~mode =
  let open Gen in
  let* n = int_range 1 max_n in
  let* max_gap = int_bound 4 in
  let* write_ratio = ratio in
  let* burst_ratio = ratio in
  let* subword_ratio = ratio in
  let* seed = int_bound 1_000_000 in
  let* mode =
    match mode with Some m -> return m | None -> oneofl [ `Serial; `Pipelined ]
  in
  let* mem = oneofl [ Blank; Filled ] in
  return
    { n; max_gap; write_ratio; burst_ratio; subword_ratio; seed; mode; mem }

let trace c =
  Core.Workloads.random_trace ~rng:(Sim.Rng.create ~seed:c.seed) ~n:c.n
    ~max_gap:c.max_gap ~write_ratio:c.write_ratio ~burst_ratio:c.burst_ratio
    ~subword_ratio:c.subword_ratio ()

let init c =
  match c.mem with Blank -> None | Filled -> Some Core.Runner.fill_memories

let mode_name = function `Serial -> "serial" | `Pipelined -> "pipelined"

let to_string c =
  Printf.sprintf
    "n=%d max_gap=%d write=%g burst=%g subword=%g seed=%d %s %s" c.n c.max_gap
    c.write_ratio c.burst_ratio c.subword_ratio c.seed (mode_name c.mode)
    (match c.mem with Blank -> "blank" | Filled -> "filled")

(* [mode] fixes the issue mode for a property that holds in one only.  A
   trace's items are drawn in order, so a shorter [n] replays a prefix
   of the same traffic: shrinking [n] finds the shortest failing
   prefix. *)
let arb ?(max_n = 100) ?mode () =
  QCheck.make (gen ~max_n ~mode) ~print:to_string ~shrink:(fun c ->
      QCheck.Iter.filter (fun c -> c.n >= 1)
        (QCheck.Iter.map (fun n -> { c with n }) (QCheck.Shrink.int c.n)))
