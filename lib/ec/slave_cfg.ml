type t = {
  name : string;
  base : int;
  size : int;
  addr_wait : int;
  read_wait : int;
  write_wait : int;
  writable : bool;
  executable : bool;
}

let make ~name ~base ~size ?(addr_wait = 0) ?(read_wait = 0) ?(write_wait = 0)
    ?(writable = true) ?(executable = false) () =
  let fail msg = invalid_arg (Printf.sprintf "Ec.Slave_cfg.make %s: %s" name msg) in
  if size <= 0 then fail "non-positive size";
  if base < 0 || base + size > Txn.max_addr then fail "range outside 36-bit space";
  if base mod 4 <> 0 || size mod 4 <> 0 then fail "range not word aligned";
  if addr_wait < 0 || read_wait < 0 || write_wait < 0 then fail "negative wait count";
  { name; base; size; addr_wait; read_wait; write_wait; writable; executable }

let contains t addr = addr >= t.base && addr < t.base + t.size

let allows t (txn : Txn.t) =
  match txn.dir, txn.kind with
  | Txn.Write, _ -> t.writable
  | Txn.Read, Txn.Instruction -> t.executable
  | Txn.Read, Txn.Data -> true

let overlaps a b = a.base < b.base + b.size && b.base < a.base + a.size
