exception Out_of_memory
exception Bounds of { obj : int; index : int; length : int }

type array_cell = { offset : int; len : int }

type t = {
  firewall : Firewall.t;
  statics : int array;
  heap : int array;
  arrays : (int, array_cell) Hashtbl.t;
  mutable next_ref : int;
  mutable brk : int;  (* first free heap slot *)
}

let to_short v =
  let v = v land 0xFFFF in
  if v > 32767 then v - 65536 else v

let create ?(heap_shorts = 4096) firewall =
  {
    firewall;
    statics = Array.make 64 0;
    heap = Array.make heap_shorts 0;
    arrays = Hashtbl.create 32;
    next_ref = 1;
    brk = 0;
  }

let get_static t i =
  if i < 0 || i >= Array.length t.statics then
    invalid_arg (Printf.sprintf "Jcvm.Memmgr.get_static %d" i);
  t.statics.(i)

let set_static t i v =
  if i < 0 || i >= Array.length t.statics then
    invalid_arg (Printf.sprintf "Jcvm.Memmgr.set_static %d" i);
  t.statics.(i) <- to_short v

let alloc_array t ~ctx ~len =
  if len < 0 then invalid_arg "Jcvm.Memmgr.alloc_array: negative length";
  if t.brk + len > Array.length t.heap then raise Out_of_memory;
  let ref_ = t.next_ref in
  t.next_ref <- ref_ + 1;
  Hashtbl.replace t.arrays ref_ { offset = t.brk; len };
  t.brk <- t.brk + len;
  Firewall.register_object t.firewall ~owner:ctx ~obj:ref_;
  ref_

let cell t obj =
  match Hashtbl.find_opt t.arrays obj with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Jcvm.Memmgr: unknown array %d" obj)

let checked_cell t ~ctx ~obj ~index =
  Firewall.check t.firewall ~from_ctx:ctx ~obj;
  let c = cell t obj in
  if index < 0 || index >= c.len then
    raise (Bounds { obj; index; length = c.len });
  c

let load t ~ctx ~obj ~index =
  let c = checked_cell t ~ctx ~obj ~index in
  t.heap.(c.offset + index)

let store t ~ctx ~obj ~index v =
  let c = checked_cell t ~ctx ~obj ~index in
  t.heap.(c.offset + index) <- to_short v

let length t ~ctx ~obj =
  Firewall.check t.firewall ~from_ctx:ctx ~obj;
  (cell t obj).len

let free_shorts t = Array.length t.heap - t.brk
