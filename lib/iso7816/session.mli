(** Bus-level card session: the communication refinement of the card OS.

    The terminal injects command bytes into the platform UART; the card
    firmware — the same {!Card.t} functional model — performs all its I/O
    through bus transactions (status polls, byte reads, byte writes), so
    a whole APDU exchange appears on the EC bus exactly as smart-card
    firmware would produce it, and the energy models price it.

    Transport framing (simplified T=0): each direction sends one length
    byte followed by the {!Apdu} wire bytes. *)

type exchange = {
  command : Apdu.command;
  response : Apdu.response;
  cycles : int;  (** clock cycles this exchange took *)
  energy_pj : float;  (** from [energy_probe] *)
}

type stats = {
  exchanges : exchange list;
  total_cycles : int;
  firmware_txns : int;  (** bus transactions issued by the firmware *)
}

val run :
  kernel:Sim.Kernel.t ->
  port:Ec.Port.t ->
  uart:Soc.Uart.t ->
  energy_probe:(unit -> float) ->
  card:Card.t ->
  Apdu.command list ->
  stats
(** Plays the command list against the card through the platform map's
    UART; [energy_probe] is read before and after each exchange (pass
    the system's energy-since-last-call meter total).

    @raise Failure if the card side cannot decode a frame or the session
    exceeds its cycle budget. *)
