type 'a t = {
  mutable slots : 'a array;
  dummy : 'a;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create ?(capacity = 16) ~dummy () =
  { slots = Array.make (max 1 capacity) dummy; dummy; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (2 * cap) t.dummy in
  for i = 0 to t.len - 1 do
    slots.(i) <- t.slots.((t.head + i) mod cap)
  done;
  t.slots <- slots;
  t.head <- 0

let push t x =
  if t.len = Array.length t.slots then grow t;
  t.slots.((t.head + t.len) mod Array.length t.slots) <- x;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Ec.Ring.peek: empty";
  t.slots.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Ec.Ring.pop: empty";
  let x = t.slots.(t.head) in
  (* Drop the reference so popped elements can be collected. *)
  t.slots.(t.head) <- t.dummy;
  t.head <- (t.head + 1) mod Array.length t.slots;
  t.len <- t.len - 1;
  x

let pop_opt t = if t.len = 0 then None else Some (pop t)

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) t.dummy;
  t.head <- 0;
  t.len <- 0
