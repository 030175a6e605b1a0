(** Static properties of an EC bus slave, accessible through the slave
    control interface of the paper's models: address range, wait states for
    the address, read and write phases, and access-right bits. *)

type t = private {
  name : string;
  base : int;  (** byte address of first mapped byte *)
  size : int;  (** mapped bytes *)
  addr_wait : int;  (** wait states inserted in the address phase *)
  read_wait : int;  (** wait states per read data beat *)
  write_wait : int;  (** wait states per write data beat *)
  writable : bool;
  executable : bool;
}

val make :
  name:string ->
  base:int ->
  size:int ->
  ?addr_wait:int ->
  ?read_wait:int ->
  ?write_wait:int ->
  ?writable:bool ->
  ?executable:bool ->
  unit ->
  t
(** Wait states default to 0; rights default to writable and not
    executable.  Data reads are always allowed.

    @raise Invalid_argument on a negative wait count, non-positive or
    unaligned [size], or a range leaving the 36-bit address space. *)

val contains : t -> int -> bool
(** [contains t addr] holds when [addr] falls inside the mapped range. *)

val allows : t -> Txn.t -> bool
(** Access-right check: writes need [writable], instruction fetches
    [executable]; data reads always pass. *)

val overlaps : t -> t -> bool
