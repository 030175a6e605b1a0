(* The slot count is a power of two, so a position wraps with a mask. *)
type 'a t = {
  mutable slots : 'a array;
  dummy : 'a;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create ?(capacity = 16) ~dummy () =
  let rec pow2 n = if n >= capacity then n else pow2 (2 * n) in
  { slots = Array.make (pow2 1) dummy; dummy; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (2 * cap) t.dummy in
  for i = 0 to t.len - 1 do
    slots.(i) <- t.slots.((t.head + i) land (cap - 1))
  done;
  t.slots <- slots;
  t.head <- 0

let push t x =
  if t.len = Array.length t.slots then grow t;
  t.slots.((t.head + t.len) land (Array.length t.slots - 1)) <- x;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Ec.Ring.peek: empty";
  t.slots.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Ec.Ring.pop: empty";
  let x = t.slots.(t.head) in
  (* Drop the reference so popped elements can be collected. *)
  t.slots.(t.head) <- t.dummy;
  t.head <- (t.head + 1) land (Array.length t.slots - 1);
  t.len <- t.len - 1;
  x

let pop_opt t = if t.len = 0 then None else Some (pop t)

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) t.dummy;
  t.head <- 0;
  t.len <- 0
