type t = {
  cfg : Slave_cfg.t;
  read : addr:int -> width:Txn.width -> int;
  write : addr:int -> width:Txn.width -> value:int -> unit;
}

let make ~cfg ~read ~write = { cfg; read; write }

let placeholder =
  make
    ~cfg:(Slave_cfg.make ~name:"(empty slot)" ~base:0 ~size:4 ())
    ~read:(fun ~addr:_ ~width:_ -> 0)
    ~write:(fun ~addr:_ ~width:_ ~value:_ -> ())

let read_beat s (txn : Txn.t) i =
  s.read ~addr:(Txn.beat_addr txn i) ~width:txn.width

let write_beat s (txn : Txn.t) i =
  s.write ~addr:(Txn.beat_addr txn i) ~width:txn.width ~value:txn.data.(i)

let read_block s (txn : Txn.t) =
  for i = 0 to txn.burst - 1 do
    Txn.set_beat txn i (read_beat s txn i)
  done

let write_block s (txn : Txn.t) =
  for i = 0 to txn.burst - 1 do
    write_beat s txn i
  done
