type t = {
  name : string;
  per_signal : float array;
  (* Per-class average energies, precomputed at construction so the
     transaction-level models' [create] paths do a field read instead of
     rebuilding id lists and folding over them. *)
  avg_addr : float;
  avg_wdata : float;
  avg_rdata : float;
  avg_be : float;
  avg_ctrl : float;
}

(* Average over a contiguous index range, summing in ascending index
   order (the same order the old list-based fold used). *)
let range_avg per_signal first count =
  let sum = ref 0.0 in
  for i = first to first + count - 1 do
    sum := !sum +. per_signal.(i)
  done;
  !sum /. float_of_int count

let of_per_signal ~name per_signal =
  let open Ec.Signals in
  {
    name;
    per_signal;
    avg_addr = range_avg per_signal (index (Addr 0)) addr_wires;
    avg_wdata = range_avg per_signal (index (Wdata 0)) data_wires;
    avg_rdata = range_avg per_signal (index (Rdata 0)) data_wires;
    avg_be = range_avg per_signal (index (Be 0)) be_wires;
    avg_ctrl = range_avg per_signal (index (Ctrl Avalid)) ctrl_count;
  }

let make ~name f =
  of_per_signal ~name
    (Array.init Ec.Signals.count (fun i -> f (Ec.Signals.of_index i)))

let default =
  make ~name:"default(capacitance)" (fun id ->
      Units.pj_per_transition
        ~capacitance_ff:(Ec.Signals.default_capacitance_ff id)
        ~vdd:Ec.Signals.vdd)

let derive ~name ~energy_pj ~transitions =
  if Array.length energy_pj <> Ec.Signals.count
     || Array.length transitions <> Ec.Signals.count
  then invalid_arg "Power.Characterization.derive: bad array length";
  let per_signal =
    Array.init Ec.Signals.count (fun i ->
        if transitions.(i) = 0 then default.per_signal.(i)
        else energy_pj.(i) /. float_of_int transitions.(i))
  in
  of_per_signal ~name per_signal

let energy_per_transition t id = t.per_signal.(Ec.Signals.index id)
let to_array t = Array.copy t.per_signal

let scale t k =
  of_per_signal
    ~name:(Printf.sprintf "%s*%.3f" t.name k)
    (Array.map (fun e -> e *. k) t.per_signal)

let avg_addr_bit t = t.avg_addr
let avg_wdata_bit t = t.avg_wdata
let avg_rdata_bit t = t.avg_rdata
let avg_be_bit t = t.avg_be
let avg_ctrl_bit t = t.avg_ctrl

let pp ppf t =
  Format.fprintf ppf
    "@[<v>characterization %s:@ addr %.3f pJ/t  wdata %.3f  rdata %.3f  be %.3f@]"
    t.name t.avg_addr t.avg_wdata t.avg_rdata t.avg_be
