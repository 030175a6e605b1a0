type exchange = {
  command : Apdu.command;
  response : Apdu.response;
  cycles : int;
  energy_pj : float;
}

type stats = {
  exchanges : exchange list;
  total_cycles : int;
  firmware_txns : int;
}

(* Firmware-side blocking bus access through [Ec.Port.transact], as the
   JCVM master adapter does: the untimed model advances the clock inside
   each call. *)
type firmware = {
  kernel : Sim.Kernel.t;
  port : Ec.Port.t;
  ids : Ec.Txn.Id_gen.gen;
  mutable txns : int;
}

let transact fw txn =
  fw.txns <- fw.txns + 1;
  ignore (Ec.Port.transact ~kernel:fw.kernel fw.port txn);
  txn.Ec.Txn.data.(0)

let bus_read8 fw addr =
  transact fw (Ec.Txn.single_read ~id:(Ec.Txn.Id_gen.fresh fw.ids) ~width:Ec.Txn.W8 addr)

let bus_read32 fw addr =
  transact fw (Ec.Txn.single_read ~id:(Ec.Txn.Id_gen.fresh fw.ids) addr)

let bus_write8 fw addr value =
  ignore
    (transact fw
       (Ec.Txn.single_write ~id:(Ec.Txn.Id_gen.fresh fw.ids) ~width:Ec.Txn.W8
          addr ~value))

let bus_write32 fw addr value =
  ignore
    (transact fw
       (Ec.Txn.single_write ~id:(Ec.Txn.Id_gen.fresh fw.ids) addr ~value))

(* The platform UART and its register offsets (see Soc.Uart). *)
let uart_base = Soc.Platform.Map.uart_base
let data_off = 0x0
let status_off = 0x4
let baud_off = 0xC

let rx_byte fw =
  let budget = ref 200_000 in
  while bus_read32 fw (uart_base + status_off) land 2 = 0 do
    decr budget;
    if !budget = 0 then failwith "Iso7816.Session: no byte from terminal"
  done;
  bus_read8 fw (uart_base + data_off)

let tx_byte fw b =
  let budget = ref 200_000 in
  while bus_read32 fw (uart_base + status_off) land 4 <> 0 do
    decr budget;
    if !budget = 0 then failwith "Iso7816.Session: transmit FIFO stuck"
  done;
  bus_write8 fw (uart_base + data_off) b

(* Card side of one exchange: length-prefixed frame in, frame out. *)
let serve_one fw card =
  let len = rx_byte fw in
  let bytes = List.init len (fun _ -> rx_byte fw) in
  match Apdu.decode_command bytes with
  | Error msg -> failwith ("Iso7816.Session: bad frame: " ^ msg)
  | Ok command ->
    let response = Card.handle card command in
    let wire = Apdu.encode_response response in
    tx_byte fw (List.length wire);
    List.iter (tx_byte fw) wire;
    response

(* Terminal side: wait until the card's reply is fully on the line. *)
let collect_response kernel uart ~already =
  let current () = Soc.Uart.transmitted uart in
  ignore
    (Sim.Kernel.run_until kernel ~max_cycles:500_000 (fun () ->
         let s = current () in
         String.length s > already
         &&
         let frame_len = Char.code s.[already] in
         String.length s >= already + 1 + frame_len));
  let s = current () in
  let frame_len = Char.code s.[already] in
  let bytes =
    List.init frame_len (fun i -> Char.code s.[already + 1 + i])
  in
  match Apdu.decode_response bytes with
  | Ok r -> r
  | Error msg -> failwith ("Iso7816.Session: bad response frame: " ^ msg)

let run ~kernel ~port ~uart ~energy_probe ~card commands =
  let fw = { kernel; port; ids = Ec.Txn.Id_gen.create (); txns = 0 } in
  (* Speed the serial line up for the session (1 cycle per bit). *)
  bus_write32 fw (uart_base + baud_off) 1;
  let start_cycles = Sim.Kernel.now kernel in
  let consumed = ref 0 in
  let exchanges =
    List.map
      (fun command ->
        let already = String.length (Soc.Uart.transmitted uart) in
        let t0 = Sim.Kernel.now kernel in
        ignore (energy_probe ());
        let wire = Apdu.encode_command command in
        Soc.Uart.inject_rx uart (List.length wire);
        List.iter (Soc.Uart.inject_rx uart) wire;
        let card_response = serve_one fw card in
        let seen = collect_response kernel uart ~already in
        assert (card_response.Apdu.sw = seen.Apdu.sw);
        let cycles = Sim.Kernel.now kernel - t0 in
        consumed := !consumed + cycles;
        { command; response = seen; cycles; energy_pj = energy_probe () })
      commands
  in
  {
    exchanges;
    total_cycles = Sim.Kernel.now kernel - start_cycles;
    firmware_txns = fw.txns;
  }
