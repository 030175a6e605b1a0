type direction = Read | Write
type kind = Instruction | Data
type width = W8 | W16 | W32
type category = Cat_instr_read | Cat_data_read | Cat_write
type bus_state = Request | Wait | Ok | Error

type t = {
  id : int;
  kind : kind;
  dir : direction;
  width : width;
  addr : int;
  burst : int;
  data : int array;
}

let max_addr = 1 lsl 36

let width_bits = function W8 -> 8 | W16 -> 16 | W32 -> 32

let alignment = function W8 -> 1 | W16 -> 2 | W32 -> 4

let create ~id ~kind ~dir ~width ~addr ~burst ?data () =
  let fail msg = invalid_arg (Printf.sprintf "Ec.Txn.create: %s" msg) in
  if burst <> 1 && burst <> 4 then fail "burst must be 1 or 4";
  if burst = 4 && width <> W32 then fail "sub-word bursts are not allowed";
  if addr < 0 || addr >= max_addr then fail "address outside 36-bit range";
  if addr mod alignment width <> 0 then fail "misaligned address";
  if kind = Instruction && dir = Write then fail "instruction writes";
  if kind = Instruction && width <> W32 then fail "sub-word instruction fetch";
  let data =
    match data, dir with
    | Some d, Write ->
      if Array.length d <> burst then fail "write payload length <> burst";
      Array.map (fun v -> v land 0xFFFFFFFF) d
    | None, Write -> fail "write without payload"
    | Some _, Read -> fail "read with payload"
    | None, Read -> Array.make burst 0
  in
  { id; kind; dir; width; addr; burst; data }

(* The transaction is already well formed: only the id and a payload of
   its own change. *)
let renumber ~id t =
  let data =
    match t.dir with
    | Write -> Array.copy t.data
    | Read -> Array.make t.burst 0
  in
  { t with id; data }

let single_read ~id ?(kind = Data) ?(width = W32) addr =
  create ~id ~kind ~dir:Read ~width ~addr ~burst:1 ()

let single_write ~id ?(width = W32) addr ~value =
  create ~id ~kind:Data ~dir:Write ~width ~addr ~burst:1 ~data:[| value |] ()

let burst_read ~id ?(kind = Data) addr =
  create ~id ~kind ~dir:Read ~width:W32 ~addr ~burst:4 ()

let burst_write ~id addr ~values =
  create ~id ~kind:Data ~dir:Write ~width:W32 ~addr ~burst:4 ~data:values ()

let category t =
  match t.dir, t.kind with
  | Write, _ -> Cat_write
  | Read, Instruction -> Cat_instr_read
  | Read, Data -> Cat_data_read

let bytes_per_beat t = alignment t.width

let beat_addr t i =
  assert (i >= 0 && i < t.burst);
  t.addr + (i * 4)

let byte_enables t i =
  match t.width with
  | W32 -> 0b1111
  | W16 -> if beat_addr t i land 2 = 0 then 0b0011 else 0b1100
  | W8 -> 1 lsl (beat_addr t i land 3)

let set_beat t i v =
  assert (i >= 0 && i < t.burst);
  t.data.(i) <- v land 0xFFFFFFFF

let pp ppf t =
  let dir = match t.dir with Read -> "R" | Write -> "W" in
  let kind = match t.kind with Instruction -> "I" | Data -> "D" in
  Format.fprintf ppf "#%d %s%s w%d @%#x x%d" t.id dir kind
    (width_bits t.width) t.addr t.burst

let equal_payload a b =
  a.kind = b.kind && a.dir = b.dir && a.width = b.width && a.addr = b.addr
  && a.burst = b.burst
  && (a.dir = Read || a.data = b.data)

module Id_gen = struct
  type gen = int ref

  let create () = ref 0

  let fresh g =
    incr g;
    !g

  let reset g = g := 0
end
