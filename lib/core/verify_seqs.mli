(** The verification sequences of the paper's section 4.1.

    "The examples are single read and write with and without wait states,
    back-to-back reads, back-to-back writes, read followed by write and
    write followed by read with reordering, and at last burst read and
    write transactions" — expressed against the Figure-1 memory map
    (ROM/RAM are zero-wait, EEPROM and FLASH insert address and data wait
    states).  The same traces stimulate the gate-level, layer-1 and
    layer-2 models for Tables 1 and 2. *)

val all : (string * Ec.Trace.t) list
(** Every named sequence. *)

val find : string -> Ec.Trace.t
(** @raise Not_found for an unknown name. *)

val combined : Ec.Trace.t
(** All sequences concatenated (two idle cycles between groups): the
    stimulus used for the accuracy tables. *)
