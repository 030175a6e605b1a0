type t = Slave.t array

type access =
  | Mapped of int * Slave.t
  | Unmapped
  | Rights_violation of int * Slave.t

let create slaves =
  let arr = Array.of_list slaves in
  Array.iteri
    (fun i (a : Slave.t) ->
      Array.iteri
        (fun j (b : Slave.t) ->
          if i < j && Slave_cfg.overlaps a.cfg b.cfg then
            invalid_arg
              (Printf.sprintf "Ec.Decoder.create: %s overlaps %s"
                 a.cfg.Slave_cfg.name b.cfg.Slave_cfg.name))
        arr)
    arr;
  arr

let count t = Array.length t
let slaves t = Array.to_list t

let find t addr =
  let rec loop i =
    if i >= Array.length t then None
    else if Slave_cfg.contains t.(i).Slave.cfg addr then Some (i, t.(i))
    else loop (i + 1)
  in
  loop 0

let check t (txn : Txn.t) =
  match find t txn.addr with
  | None -> Unmapped
  | Some (i, s) ->
    let last = Txn.beat_addr txn (txn.burst - 1) + Txn.bytes_per_beat txn - 1 in
    if not (Slave_cfg.contains s.Slave.cfg last) then Unmapped
    else if Slave_cfg.allows s.Slave.cfg txn then Mapped (i, s)
    else Rights_violation (i, s)
