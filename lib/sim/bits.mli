(** Bit counting on OCaml's 63-bit integers. *)

val popcount : int -> int
(** Number of set bits in a non-negative [int]. *)
