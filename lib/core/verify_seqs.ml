module Map = Soc.Platform.Map

(* Builders with throwaway ids; Trace.instantiate renumbers at replay. *)
let read ?kind ?width addr =
  Ec.Trace.item ~gap:0 (Ec.Txn.single_read ~id:0 ?kind ?width addr)

let write ?width addr value =
  Ec.Trace.item ~gap:0 (Ec.Txn.single_write ~id:0 ?width addr ~value)

let burst_read addr = Ec.Trace.item ~gap:0 (Ec.Txn.burst_read ~id:0 addr)

let burst_write addr values =
  Ec.Trace.item ~gap:0 (Ec.Txn.burst_write ~id:0 addr ~values)

let patterns = [| 0xDEADBEEF; 0x01234567; 0xA5A5A5A5; 0x00000000; 0xFFFFFFFF |]

let all =
  [
    ("single-read-nowait", [ read Map.rom_base ]);
    ("single-read-wait", [ read (Map.eeprom_base + 0x40) ]);
    ("single-write-nowait", [ write Map.ram_base patterns.(0) ]);
    ("single-write-wait", [ write (Map.eeprom_base + 0x80) patterns.(1) ]);
    ( "back-to-back-reads",
      List.init 8 (fun i -> read (Map.rom_base + (4 * i))) );
    ( "back-to-back-writes",
      List.init 8 (fun i ->
          write (Map.ram_base + (4 * i)) patterns.(i mod 5)) );
    ( "read-then-write",
      [ read Map.rom_base; write Map.ram_base patterns.(2) ] );
    (* A slow write followed by a fast read: the read data phase finishes
       while the write is still inserting wait states (reordering between
       the independent read and write buses). *)
    ( "write-then-read-reorder",
      [ write (Map.eeprom_base + 0x100) patterns.(3); read Map.rom_base ] );
    ( "burst-reads",
      List.init 4 (fun i -> burst_read (Map.rom_base + (16 * i))) );
    ( "burst-writes",
      List.init 4 (fun i ->
          burst_write
            (Map.ram_base + (16 * i))
            (Array.init 4 (fun j -> patterns.((i + j) mod 5)))) );
    ( "merge-patterns",
      [
        read ~width:Ec.Txn.W8 (Map.rom_base + 1);
        read ~width:Ec.Txn.W8 (Map.rom_base + 3);
        read ~width:Ec.Txn.W16 (Map.rom_base + 2);
        write ~width:Ec.Txn.W8 (Map.ram_base + 5) 0x5A;
        write ~width:Ec.Txn.W16 (Map.ram_base + 6) 0x1234;
        read ~width:Ec.Txn.W16 Map.ram_base;
      ] );
    ( "instruction-fetch",
      List.init 4 (fun i ->
          read ~kind:Ec.Txn.Instruction (Map.flash_base + (4 * i))) );
  ]

let find name = List.assoc name all

let combined =
  List.concat_map
    (fun (_, items) ->
      match items with
      | [] -> []
      | first :: rest ->
        { first with Ec.Trace.gap = first.Ec.Trace.gap + 2 } :: rest)
    all
