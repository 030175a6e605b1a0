module Map = struct
  let rom_base = 0x000_0000
  let rom_size = 256 * 1024
  let ram_base = 0x010_0000
  let ram_size = 8 * 1024
  let eeprom_base = 0x020_0000
  let eeprom_size = 32 * 1024
  let flash_base = 0x030_0000
  let flash_size = 64 * 1024
  let uart_base = 0x0F0_0000
  let timer_base = 0x0F0_1000
  let trng_base = 0x0F0_2000
  let crypto_base = 0x0F0_3000
  let sfr_base = 0x0F0_4000
  let dma_base = 0x0F0_7000
  let intc_base = 0x0F0_8000
end

(* Interrupt line assignment. *)
let timer0_irq_line = 0
let timer1_irq_line = 1
let uart_rx_irq_line = 2
let crypto_irq_line = 3
let dma_irq_line = 4

type t = {
  rom : Memory.t;
  ram : Memory.t;
  eeprom : Memory.t;
  flash : Memory.t;
  uart : Uart.t;
  timer : Timer.t;
  trng : Trng.t;
  crypto : Crypto.t;
  intc : Intc.t;
  dma : Dma.t;
  decoder : Ec.Decoder.t;
}

let create ~kernel ?(seed = 0x0C0FFEE) ?(extra_slaves = [])
    ?(peripheral_clock = `Running) () =
  (* Gating puts every component's slot and process on a private kernel
     that is never stepped: frozen timers, zero cycle counts, bus-facing
     behaviour unchanged.  Running, idle peripherals park themselves and
     cost nothing either; only their counts differ. *)
  let kernel =
    match peripheral_clock with
    | `Running -> kernel
    | `Gated -> Sim.Kernel.create ()
  in
  let cfg = Ec.Slave_cfg.make in
  let intc =
    Intc.create ~kernel (cfg ~name:"intc" ~base:Map.intc_base ~size:0x10 ())
  in
  let rom =
    Memory.create ~kernel ~component:Power.Component.Presets.rom
      (cfg ~name:"rom" ~base:Map.rom_base ~size:Map.rom_size ~writable:false
         ~executable:true ())
  in
  let ram =
    Memory.create ~kernel ~component:Power.Component.Presets.sram
      (cfg ~name:"ram" ~base:Map.ram_base ~size:Map.ram_size ~executable:true ())
  in
  let eeprom =
    Memory.create ~kernel ~component:Power.Component.Presets.eeprom
      (cfg ~name:"eeprom" ~base:Map.eeprom_base ~size:Map.eeprom_size
         ~addr_wait:1 ~read_wait:2 ~write_wait:4 ())
  in
  let flash =
    Memory.create ~kernel ~component:Power.Component.Presets.flash
      (cfg ~name:"flash" ~base:Map.flash_base ~size:Map.flash_size ~addr_wait:1
         ~read_wait:1 ~write_wait:3 ~writable:false ~executable:true ())
  in
  let uart =
    Uart.create ~kernel
      ~rx_irq:(fun () -> Intc.raise_line intc uart_rx_irq_line)
      (cfg ~name:"uart" ~base:Map.uart_base ~size:0x20 ~read_wait:1
         ~write_wait:1 ())
  in
  let timer =
    Timer.create ~kernel
      ~irq:(fun ch ->
        Intc.raise_line intc
          (if ch = 0 then timer0_irq_line else timer1_irq_line))
      (cfg ~name:"timer" ~base:Map.timer_base ~size:0x20 ())
  in
  let trng =
    Trng.create ~kernel ~seed:(seed lxor 0x7126)
      (cfg ~name:"trng" ~base:Map.trng_base ~size:0x10 ~read_wait:2
         ~writable:true ())
  in
  let crypto =
    Crypto.create ~kernel ~seed:(seed lxor 0xC217)
      ~done_irq:(fun () -> Intc.raise_line intc crypto_irq_line)
      (cfg ~name:"crypto" ~base:Map.crypto_base ~size:0x40 ())
  in
  let dma =
    Dma.create ~kernel
      ~done_irq:(fun () -> Intc.raise_line intc dma_irq_line)
      (cfg ~name:"dma" ~base:Map.dma_base ~size:0x20 ())
  in
  let slaves =
    [
      Memory.slave rom; Memory.slave ram; Memory.slave eeprom;
      Memory.slave flash; Uart.slave uart; Timer.slave timer; Trng.slave trng;
      Crypto.slave crypto; Intc.slave intc; Dma.slave dma;
    ]
    @ extra_slaves
  in
  { rom; ram; eeprom; flash; uart; timer; trng; crypto; intc; dma;
    decoder = Ec.Decoder.create slaves }

let rom t = t.rom
let ram t = t.ram
let eeprom t = t.eeprom
let flash t = t.flash
let uart t = t.uart
let intc t = t.intc
let dma t = t.dma
let connect_bus t port = Dma.connect t.dma port
let irq_asserted t = Intc.asserted t.intc
let decoder t = t.decoder

let components t =
  [
    Memory.component t.rom; Memory.component t.ram; Memory.component t.eeprom;
    Memory.component t.flash; Uart.component t.uart; Timer.component t.timer;
    Trng.component t.trng; Crypto.component t.crypto; Intc.component t.intc;
    Dma.component t.dma;
  ]

let components_energy_pj t =
  List.fold_left (fun acc c -> acc +. Power.Component.energy_pj c) 0.0
    (components t)

let load_program t (p : Asm.program) =
  let origin = p.Asm.origin in
  let target =
    if origin >= Map.rom_base && origin < Map.rom_base + Map.rom_size then
      Some t.rom
    else if origin >= Map.ram_base && origin < Map.ram_base + Map.ram_size then
      Some t.ram
    else if
      origin >= Map.eeprom_base && origin < Map.eeprom_base + Map.eeprom_size
    then Some t.eeprom
    else if
      origin >= Map.flash_base && origin < Map.flash_base + Map.flash_size
    then Some t.flash
    else None
  in
  match target with
  | Some memory -> Memory.load_program memory p
  | None ->
    invalid_arg
      (Printf.sprintf "Soc.Platform.load_program: origin %#x not in a memory"
         origin)

let reset t =
  Memory.reset t.rom;
  Memory.reset t.ram;
  Memory.reset t.eeprom;
  Memory.reset t.flash;
  Uart.reset t.uart;
  Timer.reset t.timer;
  Trng.reset t.trng;
  Crypto.reset t.crypto;
  Intc.reset t.intc;
  Dma.reset t.dma
