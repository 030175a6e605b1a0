module Map = Soc.Platform.Map

let kind_name = function
  | Obs.Event.Txn_issued -> "issued"
  | Obs.Event.Txn_rejected -> "rejected"
  | Obs.Event.Txn_granted -> "granted"
  | Obs.Event.Data_beat -> "beat"
  | Obs.Event.Txn_finished -> "finished"
  | Obs.Event.Txn_error -> "error"
  | Obs.Event.Window_open -> "window-open"
  | Obs.Event.Window_close -> "window-close"
  | Obs.Event.Level_switch -> "switch"
  | Obs.Event.Energy_sample -> "energy"

let words base = Array.init 4 (fun i -> base + i)

(* Zero gaps into the EEPROM's slow writes, then runs of each read
   category: every category fills to four outstanding and the master's
   next submission is refused until one finishes. *)
let pressure =
  let item txn = Ec.Trace.item txn in
  List.concat
    [
      List.init 6 (fun i ->
          item
            (Ec.Txn.burst_write ~id:0 (Map.eeprom_base + (16 * i))
               ~values:(words (0x100 * i))));
      List.init 6 (fun i ->
          item (Ec.Txn.burst_read ~id:0 (Map.eeprom_base + (16 * i))));
      List.init 6 (fun i ->
          item
            (Ec.Txn.burst_read ~id:0 ~kind:Ec.Txn.Instruction
               (Map.flash_base + (16 * i))));
      List.init 6 (fun i ->
          item (Ec.Txn.single_write ~id:0 (Map.eeprom_base + (4 * i)) ~value:i));
      [
        item (Ec.Txn.single_read ~id:0 ~width:Ec.Txn.W8 (Map.ram_base + 3));
        item (Ec.Txn.single_write ~id:0 ~width:Ec.Txn.W16 (Map.ram_base + 2)
                ~value:0xBEEF);
      ];
    ]

(* Both decode failures: an address no slave maps (read) and a write
   into read-only ROM, between ordinary traffic. *)
let errors =
  let item ?gap txn = Ec.Trace.item ?gap txn in
  [
    item (Ec.Txn.single_write ~id:0 Map.ram_base ~value:7);
    item (Ec.Txn.single_read ~id:0 0x400_0000);
    item ~gap:1 (Ec.Txn.burst_read ~id:0 Map.ram_base);
    item (Ec.Txn.single_write ~id:0 Map.rom_base ~value:1);
    item ~gap:2 (Ec.Txn.burst_write ~id:0 Map.rom_base ~values:(words 0));
    item (Ec.Txn.burst_read ~id:0 0x400_0010);
    item (Ec.Txn.single_read ~id:0 Map.ram_base);
  ]

let traces = [ ("pressure", pressure); ("errors", errors) ]
let levels = Core.Level.[ (Rtl, "rtl"); (L1, "l1"); (L2, "l2"); (L3, "l3") ]

let text ?pool () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (name, trace) ->
      List.iter
        (fun (level, level_name) ->
          let sink = Obs.Sink.create () in
          ignore
            (Core.Runner.run_trace ~level ~sink ?pool ~mode:`Pipelined trace);
          if Obs.Sink.dropped sink <> 0 then
            failwith "Event_ledger.text: the sink dropped events";
          List.iter
            (fun (e : Obs.Event.t) ->
              Printf.bprintf b "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%h\n" name
                level_name (kind_name e.Obs.Event.kind)
                e.Obs.Event.cycle e.Obs.Event.id e.Obs.Event.arg
                e.Obs.Event.arg2 e.Obs.Event.value)
            (Obs.Sink.events sink))
        levels)
    traces;
  Buffer.contents b
