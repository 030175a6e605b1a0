(** UART peripheral (Figure 1).

    Register map (word offsets from the slave base):
    - [0x0] DATA: write queues a byte for transmission, read pops the
      receive FIFO (0 when empty);
    - [0x4] STATUS: bit0 transmitter busy, bit1 receive data available,
      bit2 transmit FIFO full;
    - [0x8] CTRL: bit0 enable;
    - [0xC] BAUD: clock cycles per bit (default 16).

    Transmission takes [10 * baud] cycles per byte (start + 8 data + stop).
    Transmitted bytes accumulate in a host-visible buffer. *)

type t

val create :
  kernel:Sim.Kernel.t ->
  ?rx_irq:(unit -> unit) ->
  Ec.Slave_cfg.t ->
  t
(** [rx_irq] fires when a byte enters the receive FIFO. *)

val slave : t -> Ec.Slave.t
val component : t -> Power.Component.t

val inject_rx : t -> int -> unit
(** Host side: makes a byte available in the receive FIFO. *)

val transmitted : t -> string
(** All bytes fully shifted out so far. *)

val tx_busy : t -> bool

val reset : t -> unit
(** FIFOs, captured output, line state, control registers and the power
    component back to the freshly created state. *)
