(** Sample applets: the workloads of the HW/SW interface exploration.

    Each applet is a bytecode program plus its expected return value, so
    the exploration can check functional equivalence between the software
    stack and every hardware-stack configuration. *)

type t = {
  name : string;
  program : Bytecode.t array;  (** entry method (method 0) *)
  methods : Bytecode.t array array;  (** callee methods (1..) *)
  statics : int array;  (** initial static field values *)
  expected : int option;  (** reference return value *)
}

val method_table : t -> Bytecode.t array array
(** Entry method prepended to the callees. *)

val wallet : t
(** Electronic-purse flavour: repeated balance credits/debits with limit
    checks; returns the final balance. *)

val crc16 : t
(** CCITT CRC-16 over a 16-short message built into an array; returns the
    CRC.  Array- and shift-heavy. *)

val fib : t
(** Iterative Fibonacci (20 rounds, modulo short range); stack/local
    ping-pong. *)

val gcd : t
(** Recursive Euclid via a static helper method: method invocation frames
    over the shared operand stack. *)

val all : t list
