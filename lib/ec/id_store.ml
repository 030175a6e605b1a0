type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  dummy : 'a;
  mutable len : int;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = max 1 capacity in
  { keys = Array.make capacity 0; vals = Array.make capacity dummy; dummy;
    len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Top-level tail recursion on purpose: a [ref] loop counter (or a local
   closure) would put one minor block on every lookup, and this sits on
   the per-transaction path. *)
let rec index_from t key i =
  if i >= t.len then -1
  else if t.keys.(i) = key then i
  else index_from t key (i + 1)

let index t key = index_from t key 0

let mem t key = index t key >= 0

let grow t =
  let cap = Array.length t.keys in
  let keys = Array.make (2 * cap) 0 in
  let vals = Array.make (2 * cap) t.dummy in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.keys <- keys;
  t.vals <- vals

let set t key value =
  match index t key with
  | -1 ->
    if t.len = Array.length t.keys then grow t;
    t.keys.(t.len) <- key;
    t.vals.(t.len) <- value;
    t.len <- t.len + 1
  | i -> t.vals.(i) <- value

let find_default t key ~default =
  match index t key with -1 -> default | i -> t.vals.(i)

let value_at t i =
  if i < 0 || i >= t.len then invalid_arg "Ec.Id_store.value_at";
  t.vals.(i)

let remove_at t i =
  if i < 0 || i >= t.len then invalid_arg "Ec.Id_store.remove_at";
  let last = t.len - 1 in
  t.keys.(i) <- t.keys.(last);
  t.vals.(i) <- t.vals.(last);
  t.vals.(last) <- t.dummy;
  t.len <- last

let remove t key =
  match index t key with -1 -> () | i -> remove_at t i

let clear t =
  Array.fill t.vals 0 t.len t.dummy;
  t.len <- 0
