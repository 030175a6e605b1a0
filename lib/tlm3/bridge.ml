type t = {
  kernel : Sim.Kernel.t;
  port : Ec.Port.t;
  ids : Ec.Txn.Id_gen.gen;
  mutable transactions : int;
}

let create ~kernel ~port = { kernel; port; ids = Ec.Txn.Id_gen.create (); transactions = 0 }

let transact t txn =
  t.transactions <- t.transactions + 1;
  Ec.Port.transact ~kernel:t.kernel t.port txn

(* Chop a [words]-long window into 4-word bursts plus single words. *)
let rec chunks addr words =
  if words = 0 then []
  else if words >= 4 then (addr, 4) :: chunks (addr + 16) (words - 4)
  else (addr, 1) :: chunks (addr + 4) (words - 1)

let read t ~addr ~words =
  let t0 = Sim.Kernel.now t.kernel in
  let out = Array.make words 0 in
  let rec go = function
    | [] ->
      (Channel.Ok_data out, Sim.Kernel.now t.kernel - t0)
    | (chunk_addr, chunk_words) :: rest -> begin
      let txn =
        Ec.Txn.create ~id:(Ec.Txn.Id_gen.fresh t.ids) ~kind:Ec.Txn.Data
          ~dir:Ec.Txn.Read ~width:Ec.Txn.W32 ~addr:chunk_addr
          ~burst:chunk_words ()
      in
      match transact t txn with
      | Ec.Port.Done ->
        Array.blit txn.Ec.Txn.data 0 out ((chunk_addr - addr) / 4) chunk_words;
        go rest
      | Ec.Port.Failed | Ec.Port.Pending ->
        (Channel.Bus_error, Sim.Kernel.now t.kernel - t0)
    end
  in
  if words <= 0 || addr mod 4 <> 0 then (Channel.Bus_error, 0)
  else go (chunks addr words)

let write t ~addr data =
  let t0 = Sim.Kernel.now t.kernel in
  let words = Array.length data in
  let rec go = function
    | [] -> (Channel.Ok_data [||], Sim.Kernel.now t.kernel - t0)
    | (chunk_addr, chunk_words) :: rest -> begin
      let payload = Array.sub data ((chunk_addr - addr) / 4) chunk_words in
      let txn =
        Ec.Txn.create ~id:(Ec.Txn.Id_gen.fresh t.ids) ~kind:Ec.Txn.Data
          ~dir:Ec.Txn.Write ~width:Ec.Txn.W32 ~addr:chunk_addr
          ~burst:chunk_words ~data:payload ()
      in
      match transact t txn with
      | Ec.Port.Done -> go rest
      | Ec.Port.Failed | Ec.Port.Pending ->
        (Channel.Bus_error, Sim.Kernel.now t.kernel - t0)
    end
  in
  if words = 0 || addr mod 4 <> 0 then (Channel.Bus_error, 0)
  else go (chunks addr words)

let transactions t = t.transactions
