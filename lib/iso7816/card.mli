(** Card-side operating system: applet registry and APDU dispatch.

    The functional ("untimed") model of the card application layer, in
    the sense of the paper's Figure 7(a): {!handle} is a pure call; the
    bus-level refinement ({!Session}) pushes the same commands through
    the simulated UART and EC bus. *)

type applet = {
  aid : int list;  (** application identifier, 5..16 bytes *)
  process : Apdu.command -> Apdu.response;
      (** invoked once the applet is selected *)
}

val applet : aid:int list -> (Apdu.command -> Apdu.response) -> applet
(** @raise Invalid_argument on a malformed AID. *)

type t

val create : applet list -> t
(** @raise Invalid_argument on duplicate AIDs. *)

val handle : t -> Apdu.command -> Apdu.response
(** SELECT (INS A4, P1 04) switches the current applet by AID, answering
    0x9000 or 0x6A82; any other command goes to the selected applet, or
    answers 0x6985 when none is selected.  Class byte 0xFF is rejected
    with 0x6E00. *)

val selected : t -> int list option
(** AID of the currently selected applet. *)

val commands_handled : t -> int

(** Ready-made applets for tests and demos. *)

val echo_applet : applet
(** AID A0 00 00 00 01: answers any command by echoing its data. *)

val wallet_applet : initial:int -> unit -> applet
(** AID A0 00 00 00 02, an electronic purse:
    - INS 0x30 (credit): one data byte, adds to the balance;
    - INS 0x31 (debit): one data byte, subtracts, 0x6985 on insufficient
      funds;
    - INS 0x32 (balance): returns two big-endian balance bytes.
    The balance saturates at 0xFFFF (0x6A80 on overflow). *)
