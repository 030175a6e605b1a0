type message = { addr : int; words : int }
type outcome = Ok_data of int array | Bus_error

type t = {
  decoder : Ec.Decoder.t;
  mutable messages : int;
  mutable words_moved : int;
}

let create decoder = { decoder; messages = 0; words_moved = 0 }

(* Mapping and rights of a [base, base + 4*words) window. *)
let locate t ~addr ~words ~dir =
  if words <= 0 || addr mod 4 <> 0 then None
  else
    match Ec.Decoder.find t.decoder addr with
    | None -> None
    | Some (_, slave) ->
      let cfg = slave.Ec.Slave.cfg in
      let last = addr + (4 * words) - 1 in
      let allowed = dir = Ec.Txn.Read || cfg.Ec.Slave_cfg.writable in
      if Ec.Slave_cfg.contains cfg last && allowed then Some slave else None

let read t message =
  t.messages <- t.messages + 1;
  match locate t ~addr:message.addr ~words:message.words ~dir:Ec.Txn.Read with
  | None -> Bus_error
  | Some slave ->
    t.words_moved <- t.words_moved + message.words;
    Ok_data
      (Array.init message.words (fun i ->
           slave.Ec.Slave.read ~addr:(message.addr + (4 * i)) ~width:Ec.Txn.W32))

let write t ~addr data =
  t.messages <- t.messages + 1;
  match locate t ~addr ~words:(Array.length data) ~dir:Ec.Txn.Write with
  | None -> Bus_error
  | Some slave ->
    t.words_moved <- t.words_moved + Array.length data;
    Array.iteri
      (fun i value ->
        slave.Ec.Slave.write ~addr:(addr + (4 * i)) ~width:Ec.Txn.W32 ~value)
      data;
    Ok_data [||]

let messages t = t.messages
let words_moved t = t.words_moved
