type trace = float array

let min_length traces =
  List.fold_left (fun acc t -> min acc (Array.length t)) max_int traces

let mean_of traces len =
  let n = List.length traces in
  let acc = Array.make len 0.0 in
  let add t =
    for i = 0 to len - 1 do
      acc.(i) <- acc.(i) +. t.(i)
    done
  in
  List.iter add traces;
  Array.map (fun s -> s /. float_of_int n) acc

let difference_of_means ~traces ~select =
  let selected, others =
    List.partition (fun (i, _) -> select i)
      (List.mapi (fun i t -> (i, t)) traces)
  in
  if selected = [] || others = [] then
    invalid_arg "Power.Dpa.difference_of_means: empty partition";
  let len = min_length traces in
  let m1 = mean_of (List.map snd selected) len in
  let m0 = mean_of (List.map snd others) len in
  Array.init len (fun i -> m1.(i) -. m0.(i))

let peak_abs trace =
  let best = ref 0 in
  Array.iteri (fun i v -> if Float.abs v > Float.abs trace.(!best) then best := i) trace;
  (!best, trace.(!best))

let dpa_attack ~traces ~inputs ~model ~guesses =
  let inputs = Array.of_list inputs in
  let score key =
    let select i = model ~key ~input:inputs.(i) in
    match difference_of_means ~traces ~select with
    | diff -> snd (peak_abs diff) |> Float.abs
    | exception Invalid_argument _ -> 0.0
  in
  List.map (fun g -> (g, score g)) guesses
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let pearson xs ys =
  let n = min (Array.length xs) (Array.length ys) in
  if n = 0 then 0.0
  else begin
    let fn = float_of_int n in
    let sum a = Array.fold_left ( +. ) 0.0 (Array.sub a 0 n) in
    let mx = sum xs /. fn and my = sum ys /. fn in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx = 0.0 || !syy = 0.0 then 0.0
    else !sxy /. sqrt (!sxx *. !syy)
  end

let cpa_attack ~traces ~inputs ~model ~guesses =
  let traces_arr = Array.of_list traces in
  let inputs = Array.of_list inputs in
  let n = Array.length traces_arr in
  let len = min_length traces in
  let column c = Array.init n (fun i -> traces_arr.(i).(c)) in
  let columns = Array.init len column in
  let score key =
    let hypo = Array.init n (fun i -> model ~key ~input:inputs.(i)) in
    let best = ref 0.0 in
    Array.iter
      (fun col ->
        let r = Float.abs (pearson hypo col) in
        if r > !best then best := r)
      columns;
    !best
  in
  List.map (fun g -> (g, score g)) guesses
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let hamming_weight = Sim.Bits.popcount
let hamming_distance a b = Sim.Bits.popcount (a lxor b)

let snr ~traces ~groups =
  let len = min_length traces in
  let tbl = Hashtbl.create 16 in
  List.iter2
    (fun trace g ->
      let cur = try Hashtbl.find tbl g with Not_found -> [] in
      Hashtbl.replace tbl g (trace :: cur))
    traces groups;
  let group_stats =
    Hashtbl.fold (fun _ ts acc -> (mean_of ts len, ts) :: acc) tbl []
  in
  let cycle_snr c =
    let means = List.map (fun (m, _) -> m.(c)) group_stats in
    let overall = List.fold_left ( +. ) 0.0 means /. float_of_int (List.length means) in
    let var_means =
      List.fold_left (fun acc m -> acc +. ((m -. overall) ** 2.0)) 0.0 means
      /. float_of_int (List.length means)
    in
    let group_var (m, ts) =
      let contributions =
        List.map (fun t -> (t.(c) -. m.(c)) ** 2.0) ts
      in
      List.fold_left ( +. ) 0.0 contributions /. float_of_int (List.length ts)
    in
    let noise =
      List.fold_left (fun acc g -> acc +. group_var g) 0.0 group_stats
      /. float_of_int (List.length group_stats)
    in
    if noise = 0.0 then 0.0 else var_means /. noise
  in
  let total = ref 0.0 in
  for c = 0 to len - 1 do
    total := !total +. cycle_snr c
  done;
  if len = 0 then 0.0 else !total /. float_of_int len
