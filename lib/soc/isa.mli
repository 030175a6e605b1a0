(** Instruction set of the small RISC core standing in for the MIPS 4Ksc.

    A 32-bit load/store architecture with 32 general registers ([r0] wired
    to zero, [r31] the link register).  It exists to generate realistic
    instruction-fetch and data traffic on the EC bus — including the
    merge-pattern widths (byte/half/word accesses) and burst transfers
    (the [Lw4]/[Sw4] four-word instructions) — and to run the assembly
    test programs whose traced transactions feed the verification flow.

    Encoding: [op] in bits 31..26, [rd] 25..21, [rs] 20..16, [rt] 15..11,
    [imm] 15..0 (sign-extended unless noted), jump target in 25..0. *)

type reg = int
(** Register index 0..31. *)

type t =
  | Nop
  | Halt
  | Add of reg * reg * reg  (** [rd <- rs + rt] *)
  | Sub of reg * reg * reg
  | And of reg * reg * reg
  | Or of reg * reg * reg
  | Xor of reg * reg * reg
  | Slt of reg * reg * reg  (** signed set-on-less-than *)
  | Sll of reg * reg * int  (** [rd <- rs lsl shamt] *)
  | Srl of reg * reg * int
  | Mul of reg * reg * reg  (** low 32 bits of the product *)
  | Addi of reg * reg * int
  | Andi of reg * reg * int  (** zero-extended immediate *)
  | Ori of reg * reg * int
  | Xori of reg * reg * int
  | Lui of reg * int
  | Slti of reg * reg * int
  | Lw of reg * int * reg  (** [rd <- mem32(rs + imm)] *)
  | Lh of reg * int * reg  (** sign-extending halfword load *)
  | Lhu of reg * int * reg
  | Lb of reg * int * reg
  | Lbu of reg * int * reg
  | Sw of reg * int * reg  (** [mem32(rs + imm) <- rd] *)
  | Sh of reg * int * reg
  | Sb of reg * int * reg
  | Lw4 of reg * int * reg  (** burst: [rd..rd+3 <- mem32x4(rs + imm)] *)
  | Sw4 of reg * int * reg  (** burst store of [rd..rd+3] *)
  | Beq of reg * reg * int  (** branch offset in words, relative to the
                                instruction after the branch *)
  | Bne of reg * reg * int
  | Blt of reg * reg * int  (** signed *)
  | Bge of reg * reg * int
  | J of int  (** absolute word address *)
  | Jal of int  (** link in r31 *)
  | Jr of reg
  | Ei  (** enable interrupts *)
  | Di  (** disable interrupts *)
  | Eret  (** return from interrupt: pc <- epc, re-enable *)
  | Wfi
      (** wait for interrupt: the core stops fetching until the interrupt
          request wire asserts; it then vectors if interrupts are enabled,
          or simply continues *)

val encode : t -> int
(** 32-bit instruction word.
    @raise Invalid_argument on field overflow (register, shift amount,
    immediate or target out of range). *)

val decode : int -> t
(** @raise Failure on an unknown opcode. *)

val to_string : t -> string
(** Assembly rendering accepted back by the assembler. *)

val is_branch : t -> bool
