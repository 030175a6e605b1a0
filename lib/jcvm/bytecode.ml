type t =
  | Nop
  | Pop
  | Dup
  | Swap
  | Sspush of int
  | Bspush of int
  | Sadd
  | Ssub
  | Smul
  | Sdiv
  | Sneg
  | Sand
  | Sor
  | Sxor
  | Sshl
  | Sshr
  | Sload of int
  | Sstore of int
  | Sinc of int * int
  | Goto of int
  | Ifeq of int
  | Ifne of int
  | Iflt of int
  | Ifge of int
  | If_scmpeq of int
  | If_scmpne of int
  | If_scmplt of int
  | If_scmpge of int
  | Getstatic of int
  | Putstatic of int
  | Newarray
  | Saload
  | Sastore
  | Arraylength
  | Invokestatic of int
  | Sreturn
  | Return

(* Opcode numbering for the flat serialization. *)
let opcode = function
  | Nop -> 0x00
  | Pop -> 0x01
  | Dup -> 0x02
  | Swap -> 0x03
  | Sspush _ -> 0x04
  | Bspush _ -> 0x05
  | Sadd -> 0x10
  | Ssub -> 0x11
  | Smul -> 0x12
  | Sdiv -> 0x13
  | Sneg -> 0x14
  | Sand -> 0x15
  | Sor -> 0x16
  | Sxor -> 0x17
  | Sshl -> 0x18
  | Sshr -> 0x19
  | Sload _ -> 0x20
  | Sstore _ -> 0x21
  | Sinc _ -> 0x22
  | Goto _ -> 0x30
  | Ifeq _ -> 0x31
  | Ifne _ -> 0x32
  | Iflt _ -> 0x33
  | Ifge _ -> 0x34
  | If_scmpeq _ -> 0x35
  | If_scmpne _ -> 0x36
  | If_scmplt _ -> 0x37
  | If_scmpge _ -> 0x38
  | Getstatic _ -> 0x40
  | Putstatic _ -> 0x41
  | Newarray -> 0x50
  | Saload -> 0x51
  | Sastore -> 0x52
  | Arraylength -> 0x53
  | Invokestatic _ -> 0x54
  | Sreturn -> 0x60
  | Return -> 0x61

let check_short v =
  if v < -32768 || v > 32767 then
    invalid_arg (Printf.sprintf "Jcvm.Bytecode: short %d" v)

let check_byte v =
  if v < -128 || v > 127 then
    invalid_arg (Printf.sprintf "Jcvm.Bytecode: byte %d" v)

let check_u16 v =
  if v < 0 || v > 0xFFFF then
    invalid_arg (Printf.sprintf "Jcvm.Bytecode: index %d" v)

let encode program =
  let b = Buffer.create (Array.length program * 2) in
  let u8 v = Buffer.add_uint8 b (v land 0xFF) in
  let u16 v = Buffer.add_uint16_be b (v land 0xFFFF) in
  let emit instr =
    u8 (opcode instr);
    match instr with
    | Sspush v -> check_short v; u16 v
    | Bspush v -> check_byte v; u8 v
    | Sload i | Sstore i | Getstatic i | Putstatic i | Invokestatic i ->
      check_u16 i;
      u16 i
    | Sinc (i, v) ->
      check_u16 i;
      check_byte v;
      u16 i;
      u8 v
    | Goto l | Ifeq l | Ifne l | Iflt l | Ifge l | If_scmpeq l | If_scmpne l
    | If_scmplt l | If_scmpge l ->
      check_u16 l;
      u16 l
    | Nop | Pop | Dup | Swap | Sadd | Ssub | Smul | Sdiv | Sneg | Sand | Sor
    | Sxor | Sshl | Sshr | Newarray | Saload | Sastore | Arraylength | Sreturn
    | Return ->
      ()
  in
  Array.iter emit program;
  Buffer.to_bytes b

let decode bytes =
  let len = Bytes.length bytes in
  let pos = ref 0 in
  let u8 () =
    if !pos >= len then failwith "Jcvm.Bytecode.decode: truncated";
    let v = Bytes.get_uint8 bytes !pos in
    incr pos;
    v
  in
  let s8 () =
    let v = u8 () in
    if v > 127 then v - 256 else v
  in
  let u16 () =
    let hi = u8 () in
    let lo = u8 () in
    (hi lsl 8) lor lo
  in
  let s16 () =
    let v = u16 () in
    if v > 32767 then v - 65536 else v
  in
  let instrs = ref [] in
  while !pos < len do
    let instr =
      match u8 () with
      | 0x00 -> Nop
      | 0x01 -> Pop
      | 0x02 -> Dup
      | 0x03 -> Swap
      | 0x04 -> Sspush (s16 ())
      | 0x05 -> Bspush (s8 ())
      | 0x10 -> Sadd
      | 0x11 -> Ssub
      | 0x12 -> Smul
      | 0x13 -> Sdiv
      | 0x14 -> Sneg
      | 0x15 -> Sand
      | 0x16 -> Sor
      | 0x17 -> Sxor
      | 0x18 -> Sshl
      | 0x19 -> Sshr
      | 0x20 -> Sload (u16 ())
      | 0x21 -> Sstore (u16 ())
      | 0x22 ->
        let i = u16 () in
        let v = s8 () in
        Sinc (i, v)
      | 0x30 -> Goto (u16 ())
      | 0x31 -> Ifeq (u16 ())
      | 0x32 -> Ifne (u16 ())
      | 0x33 -> Iflt (u16 ())
      | 0x34 -> Ifge (u16 ())
      | 0x35 -> If_scmpeq (u16 ())
      | 0x36 -> If_scmpne (u16 ())
      | 0x37 -> If_scmplt (u16 ())
      | 0x38 -> If_scmpge (u16 ())
      | 0x40 -> Getstatic (u16 ())
      | 0x41 -> Putstatic (u16 ())
      | 0x50 -> Newarray
      | 0x51 -> Saload
      | 0x52 -> Sastore
      | 0x53 -> Arraylength
      | 0x54 -> Invokestatic (u16 ())
      | 0x60 -> Sreturn
      | 0x61 -> Return
      | op -> failwith (Printf.sprintf "Jcvm.Bytecode.decode: opcode %#x" op)
    in
    instrs := instr :: !instrs
  done;
  Array.of_list (List.rev !instrs)

let max_locals program =
  Array.fold_left
    (fun acc instr ->
      match instr with
      | Sload i | Sstore i | Sinc (i, _) -> max acc (i + 1)
      | _ -> acc)
    0 program

let validate program =
  let n = Array.length program in
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  if n = 0 then fail "empty program";
  Array.iteri
    (fun at instr ->
      match instr with
      | Goto l | Ifeq l | Ifne l | Iflt l | Ifge l | If_scmpeq l | If_scmpne l
      | If_scmplt l | If_scmpge l ->
        if l < 0 || l >= n then fail "instruction %d: branch target %d out of range" at l
      | Sload i | Sstore i | Sinc (i, _) | Getstatic i | Putstatic i ->
        if i < 0 then fail "instruction %d: negative index %d" at i
      | _ -> ())
    program;
  (if n > 0 then
     match program.(n - 1) with
     | Sreturn | Return | Goto _ -> ()
     | _ -> fail "program can fall off the end");
  match !problem with None -> Ok () | Some msg -> Error msg
