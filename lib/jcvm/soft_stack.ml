type t = {
  data : int array;
  mutable top : int;  (* number of valid entries *)
  mutable max_depth : int;
}

let create ?(capacity = 256) () =
  { data = Array.make capacity 0; top = 0; max_depth = 0 }

let push t v =
  if t.top >= Array.length t.data then raise Stack_intf.Overflow;
  t.data.(t.top) <- v;
  t.top <- t.top + 1;
  if t.top > t.max_depth then t.max_depth <- t.top

let pop t =
  if t.top = 0 then raise Stack_intf.Underflow;
  t.top <- t.top - 1;
  t.data.(t.top)

let ops t =
  {
    Stack_intf.push = push t;
    pop = (fun () -> pop t);
    depth = (fun () -> t.top);
    reset = (fun () -> t.top <- 0);
  }

let contents t = List.init t.top (fun i -> t.data.(t.top - 1 - i))
let max_depth_seen t = t.max_depth
