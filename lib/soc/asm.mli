(** Two-pass assembler for the {!Isa} instruction set.

    The assembly test programs of the paper's verification flow are kept
    as text; this assembler turns them into ROM images.

    Syntax, one statement per line, [#] starts a comment:
    {v
    start:  addi r1, r0, 10      # labels end with ':'
    loop:   lw   r2, 4(r3)       # loads/stores: off(base)
            beq  r1, r2, loop    # branch targets: label or word offset
            li   r4, 0x12345678  # pseudo: lui+ori (always two words)
            la   r4, table       # pseudo: address of label
            move r4, r2          # pseudo: add r4, r2, r0
            b    loop            # pseudo: beq r0, r0, loop
            j    start
    table:  .word 0xdeadbeef     # literal data word
            .space 16            # zero-filled bytes (multiple of 4)
            .org  0x40           # zero-fill up to a byte address
    v}

    Interrupt instructions: [ei], [di], [eret] (see {!Cpu}). *)

type program = {
  origin : int;  (** byte address the image is linked at *)
  words : int array;  (** instruction/data words *)
  labels : (string * int) list;  (** label name to byte address *)
}

exception Error of string
(** Raised with a message naming the offending line. *)

val assemble : ?origin:int -> string -> program
(** @raise Error on any syntax or range problem. *)

val label_addr : program -> string -> int
(** @raise Not_found if the label is not defined. *)

val disassemble : ?origin:int -> int array -> string list
(** Best-effort listing; data words appear as [.word]. *)
