(** ISO 7816-4 application protocol data units.

    The command set smart cards actually speak: a 4-byte header (CLA INS
    P1 P2) followed by optional command data (Lc) and an optional
    expected-length byte (Le); responses carry data plus the two status
    bytes SW1 SW2. *)

type command = {
  cla : int;
  ins : int;
  p1 : int;
  p2 : int;
  data : int list;  (** command data (Lc = length) *)
  le : int option;  (** expected response length, [Some 0] = up to 256 *)
}

type response = { data : int list; sw : int }

val command :
  ?cla:int -> ins:int -> ?p1:int -> ?p2:int -> ?data:int list -> ?le:int ->
  unit -> command
(** All header fields default to 0.
    @raise Invalid_argument on a byte out of range or data longer than
    255. *)

val response : ?data:int list -> int -> response

(** Standard status words. *)

val sw_ok : int  (** 0x9000 *)

val sw_wrong_length : int  (** 0x6700 *)

val sw_conditions_not_satisfied : int  (** 0x6985 *)

val sw_wrong_data : int  (** 0x6A80 *)

val sw_file_not_found : int  (** 0x6A82 *)

val sw_ins_not_supported : int  (** 0x6D00 *)

val sw_cla_not_supported : int  (** 0x6E00 *)

val ins_select : int  (** 0xA4 *)

val encode_command : command -> int list
(** T=0 wire form: header, Lc+data when present, Le when present. *)

val decode_command : int list -> (command, string) result
(** Inverse of {!encode_command} (case 1/2/3/4 APDUs). *)

val encode_response : response -> int list
val decode_response : int list -> (response, string) result

val pp_command : Format.formatter -> command -> unit
val pp_response : Format.formatter -> response -> unit
