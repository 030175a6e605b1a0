module Map = Soc.Platform.Map

(* Word-aligned random address inside [base, base+size). *)
let random_word_addr rng base size =
  base + (4 * Sim.Rng.int rng (size / 4))

let random_trace ~rng ~n ?(max_gap = 3) ?(write_ratio = 0.4)
    ?(burst_ratio = 0.25) ?(subword_ratio = 0.2) () =
  let item _ =
    let gap = Sim.Rng.int rng (max_gap + 1) in
    let is_write = Sim.Rng.float rng < write_ratio in
    let is_burst = Sim.Rng.float rng < burst_ratio in
    let txn =
      if is_write then begin
        (* Writable targets: RAM or EEPROM. *)
        let base, size =
          if Sim.Rng.bool rng then (Map.ram_base, Map.ram_size)
          else (Map.eeprom_base, Map.eeprom_size)
        in
        if is_burst then begin
          let addr = base + (4 * Sim.Rng.int rng ((size / 4) - 4)) in
          Ec.Txn.burst_write ~id:0 addr
            ~values:(Array.init 4 (fun _ -> Sim.Rng.bits rng 32))
        end
        else if Sim.Rng.float rng < subword_ratio then begin
          let width = if Sim.Rng.bool rng then Ec.Txn.W8 else Ec.Txn.W16 in
          let align = match width with Ec.Txn.W8 -> 1 | _ -> 2 in
          let addr = base + (align * Sim.Rng.int rng (size / align)) in
          let bits = Ec.Txn.width_bits width in
          Ec.Txn.single_write ~id:0 ~width addr ~value:(Sim.Rng.bits rng bits)
        end
        else
          Ec.Txn.single_write ~id:0
            (random_word_addr rng base size)
            ~value:(Sim.Rng.bits rng 32)
      end
      else begin
        let is_instr = Sim.Rng.float rng < 0.2 in
        if is_instr then begin
          (* Executable targets: ROM or FLASH. *)
          let base, size =
            if Sim.Rng.bool rng then (Map.rom_base, Map.rom_size)
            else (Map.flash_base, Map.flash_size)
          in
          if is_burst then
            Ec.Txn.burst_read ~id:0 ~kind:Ec.Txn.Instruction
              (base + (4 * Sim.Rng.int rng ((size / 4) - 4)))
          else
            Ec.Txn.single_read ~id:0 ~kind:Ec.Txn.Instruction
              (random_word_addr rng base size)
        end
        else begin
          (* Readable targets: any memory. *)
          let base, size =
            match Sim.Rng.int rng 4 with
            | 0 -> (Map.rom_base, Map.rom_size)
            | 1 -> (Map.ram_base, Map.ram_size)
            | 2 -> (Map.eeprom_base, Map.eeprom_size)
            | _ -> (Map.flash_base, Map.flash_size)
          in
          if is_burst then
            Ec.Txn.burst_read ~id:0 (base + (4 * Sim.Rng.int rng ((size / 4) - 4)))
          else if Sim.Rng.float rng < subword_ratio then begin
            let width = if Sim.Rng.bool rng then Ec.Txn.W8 else Ec.Txn.W16 in
            let align = match width with Ec.Txn.W8 -> 1 | _ -> 2 in
            Ec.Txn.single_read ~id:0 ~width
              (base + (align * Sim.Rng.int rng (size / align)))
          end
          else Ec.Txn.single_read ~id:0 (random_word_addr rng base size)
        end
      end
    in
    Ec.Trace.item ~gap txn
  in
  List.init n item

let characterization_trace =
  let rng = Sim.Rng.create ~seed:0xCAFE in
  random_trace ~rng ~n:2000 ()

(* De Bruijn cycle over {single read, single write, burst read, burst
   write}: consecutive elements (with wrap-around) realize every ordered
   pair of transaction kinds exactly once per period. *)
let de_bruijn = [| 0; 0; 1; 2; 0; 3; 1; 1; 0; 2; 2; 1; 3; 3; 2; 3 |]

let value_of_index i = (i * 0x9E3779B9) land 0xFFFFFFFF

let table3_txn i =
  let kinds = [| `Sr; `Sw; `Br; `Bw |] in
  match kinds.(de_bruijn.(i mod 16)) with
  | `Sr -> Ec.Txn.single_read ~id:0 (Map.rom_base + (4 * (i mod 64)))
  | `Sw ->
    Ec.Txn.single_write ~id:0
      (Map.ram_base + (4 * (i mod 64)))
      ~value:(value_of_index i)
  | `Br -> Ec.Txn.burst_read ~id:0 (Map.rom_base + (16 * (i mod 16)))
  | `Bw ->
    Ec.Txn.burst_write ~id:0
      (Map.ram_base + (16 * (i mod 16)))
      ~values:(Array.init 4 (fun j -> value_of_index (i + j)))

let table3_trace ~n = List.init n (fun i -> Ec.Trace.item ~gap:0 (table3_txn i))

(* A single "sensitive" transaction: EEPROM traffic (the wait-state
   non-volatile memory where a card keeps keys and counters), same
   read/write/burst rotation as the bulk mix. *)
let sensitive_txn i =
  match i mod 4 with
  | 0 -> Ec.Txn.single_read ~id:0 (Map.eeprom_base + (4 * (i mod 64)))
  | 1 ->
    Ec.Txn.single_write ~id:0
      (Map.eeprom_base + (4 * (i mod 64)))
      ~value:(value_of_index i)
  | 2 -> Ec.Txn.burst_read ~id:0 (Map.eeprom_base + (16 * (i mod 16)))
  | _ ->
    Ec.Txn.burst_write ~id:0
      (Map.eeprom_base + (16 * (i mod 16)))
      ~values:(Array.init 4 (fun j -> value_of_index (i + j)))

let mixed_phase_trace ?(phase = 256) ?(sensitive_every = 8) ~n () =
  if phase <= 0 then invalid_arg "Workloads.mixed_phase_trace: phase <= 0";
  if sensitive_every <= 1 then
    invalid_arg "Workloads.mixed_phase_trace: sensitive_every <= 1";
  let make i =
    let sensitive = (i / phase) mod sensitive_every = sensitive_every - 1 in
    Ec.Trace.item ~gap:0 (if sensitive then sensitive_txn i else table3_txn i)
  in
  List.init n make

let dma_trace ~words ?(src = Map.flash_base) () =
  Soc.Dma.descriptor_trace ~src ~dst:Map.ram_base ~words

let crypto_trace ~blocks () =
  Soc.Crypto.block_trace ~base:Map.crypto_base ~blocks
