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

(* Index of the slave mapped at [addr], or -1: no closure, no option. *)
let rec index t addr i =
  if i >= Array.length t then -1
  else if Slave_cfg.contains (Array.unsafe_get t i).Slave.cfg addr then i
  else index t addr (i + 1)

let find t addr =
  let i = index t addr 0 in
  if i < 0 then None else Some (i, t.(i))

let check t (txn : Txn.t) =
  let i = index t txn.addr 0 in
  if i < 0 then Unmapped
  else
    let s = t.(i) in
    let last = Txn.beat_addr txn (txn.burst - 1) + Txn.bytes_per_beat txn - 1 in
    if not (Slave_cfg.contains s.Slave.cfg last) then Unmapped
    else if Slave_cfg.allows s.Slave.cfg txn then Mapped (i, s)
    else Rights_violation (i, s)
