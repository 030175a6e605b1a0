(** Software operand stack: the functional stack model of the untimed
    Java Card VM (Figure 7a). *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 256 shorts. *)

val ops : t -> Stack_intf.ops
(** Push/pop raise {!Stack_intf.Overflow} / {!Stack_intf.Underflow}. *)

val contents : t -> int list
(** Top first (test backdoor). *)

val max_depth_seen : t -> int
