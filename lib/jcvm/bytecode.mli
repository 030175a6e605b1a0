(** Bytecode subset of the Java Card virtual machine.

    Java Card is 16-bit oriented: the operand stack, locals, statics and
    array elements hold signed shorts.  Branch targets are absolute
    instruction indices within the method.  The subset covers the stack,
    arithmetic, local/static variable, comparison, branch and short-array
    instruction groups — enough to express realistic applets whose only
    external dependency is the operand stack interface that the HW/SW
    exploration refines onto the bus. *)

type t =
  | Nop
  | Pop
  | Dup
  | Swap
  | Sspush of int  (** push immediate short *)
  | Bspush of int  (** push sign-extended byte *)
  | Sadd
  | Ssub
  | Smul
  | Sdiv  (** raises on division by zero *)
  | Sneg
  | Sand
  | Sor
  | Sxor
  | Sshl
  | Sshr  (** arithmetic shift right *)
  | Sload of int
  | Sstore of int
  | Sinc of int * int  (** local += immediate, no stack traffic *)
  | Goto of int
  | Ifeq of int  (** pop, branch if zero *)
  | Ifne of int
  | Iflt of int
  | Ifge of int
  | If_scmpeq of int  (** pop b, pop a, branch if a = b *)
  | If_scmpne of int
  | If_scmplt of int
  | If_scmpge of int
  | Getstatic of int
  | Putstatic of int
  | Newarray  (** pop length, push reference *)
  | Saload  (** pop index, pop ref, push element *)
  | Sastore  (** pop value, pop index, pop ref *)
  | Arraylength  (** pop ref, push length *)
  | Invokestatic of int
      (** call method [i] of the program's method table; arguments are
          passed on the operand stack (the callee pops them) *)
  | Sreturn  (** pop the result: return it to the caller's stack, or stop *)
  | Return  (** return without result, or stop *)

val encode : t array -> Bytes.t
(** CAP-style flat byte serialization (opcode byte plus big-endian
    operands).
    @raise Invalid_argument on an operand out of range. *)

val decode : Bytes.t -> t array
(** Inverse of {!encode}. @raise Failure on a malformed stream. *)

val max_locals : t array -> int
(** One past the highest local index used (0 when none). *)

val validate : t array -> (unit, string) Result.t
(** Static checks: branch targets in range, local/static indices
    non-negative, program ends with a return or an unconditional
    branch. *)
