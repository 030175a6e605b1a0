type reg = int

type t =
  | Nop
  | Halt
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | And of reg * reg * reg
  | Or of reg * reg * reg
  | Xor of reg * reg * reg
  | Slt of reg * reg * reg
  | Sll of reg * reg * int
  | Srl of reg * reg * int
  | Mul of reg * reg * reg
  | Addi of reg * reg * int
  | Andi of reg * reg * int
  | Ori of reg * reg * int
  | Xori of reg * reg * int
  | Lui of reg * int
  | Slti of reg * reg * int
  | Lw of reg * int * reg
  | Lh of reg * int * reg
  | Lhu of reg * int * reg
  | Lb of reg * int * reg
  | Lbu of reg * int * reg
  | Sw of reg * int * reg
  | Sh of reg * int * reg
  | Sb of reg * int * reg
  | Lw4 of reg * int * reg
  | Sw4 of reg * int * reg
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int
  | Bge of reg * reg * int
  | J of int
  | Jal of int
  | Jr of reg
  | Ei
  | Di
  | Eret
  | Wfi

(* Opcode assignments. *)
let op_nop = 0
let op_halt = 1
let op_add = 2
let op_sub = 3
let op_and = 4
let op_or = 5
let op_xor = 6
let op_slt = 7
let op_sll = 8
let op_srl = 9
let op_mul = 10
let op_addi = 16
let op_andi = 17
let op_ori = 18
let op_xori = 19
let op_lui = 20
let op_slti = 21
let op_lw = 24
let op_lh = 25
let op_lhu = 26
let op_lb = 27
let op_lbu = 28
let op_sw = 29
let op_sh = 30
let op_sb = 31
let op_lw4 = 34
let op_sw4 = 35
let op_beq = 40
let op_bne = 41
let op_blt = 42
let op_bge = 43
let op_j = 48
let op_jal = 49
let op_jr = 50
let op_ei = 51
let op_di = 52
let op_eret = 53
let op_wfi = 54

let check_reg r =
  if r < 0 || r > 31 then invalid_arg (Printf.sprintf "Soc.Isa: register %d" r)

let check_shamt s =
  if s < 0 || s > 31 then invalid_arg (Printf.sprintf "Soc.Isa: shamt %d" s)

let check_imm16 v =
  if v < -32768 || v > 32767 then
    invalid_arg (Printf.sprintf "Soc.Isa: immediate %d" v)

let check_uimm16 v =
  if v < 0 || v > 0xFFFF then
    invalid_arg (Printf.sprintf "Soc.Isa: unsigned immediate %d" v)

let check_target v =
  if v < 0 || v >= 1 lsl 26 then
    invalid_arg (Printf.sprintf "Soc.Isa: jump target %#x" v)

let r3 op rd rs rt =
  check_reg rd;
  check_reg rs;
  check_reg rt;
  (op lsl 26) lor (rd lsl 21) lor (rs lsl 16) lor (rt lsl 11)

let shift op rd rs shamt =
  check_reg rd;
  check_reg rs;
  check_shamt shamt;
  (op lsl 26) lor (rd lsl 21) lor (rs lsl 16) lor shamt

let imm_i op rd rs imm =
  check_reg rd;
  check_reg rs;
  check_imm16 imm;
  (op lsl 26) lor (rd lsl 21) lor (rs lsl 16) lor (imm land 0xFFFF)

let imm_u op rd rs imm =
  check_reg rd;
  check_reg rs;
  check_uimm16 imm;
  (op lsl 26) lor (rd lsl 21) lor (rs lsl 16) lor imm

let jump op target =
  check_target target;
  (op lsl 26) lor target

let encode = function
  | Nop -> op_nop lsl 26
  | Halt -> op_halt lsl 26
  | Add (d, s, t) -> r3 op_add d s t
  | Sub (d, s, t) -> r3 op_sub d s t
  | And (d, s, t) -> r3 op_and d s t
  | Or (d, s, t) -> r3 op_or d s t
  | Xor (d, s, t) -> r3 op_xor d s t
  | Slt (d, s, t) -> r3 op_slt d s t
  | Sll (d, s, sh) -> shift op_sll d s sh
  | Srl (d, s, sh) -> shift op_srl d s sh
  | Mul (d, s, t) -> r3 op_mul d s t
  | Addi (d, s, i) -> imm_i op_addi d s i
  | Andi (d, s, i) -> imm_u op_andi d s i
  | Ori (d, s, i) -> imm_u op_ori d s i
  | Xori (d, s, i) -> imm_u op_xori d s i
  | Lui (d, i) -> imm_u op_lui d 0 i
  | Slti (d, s, i) -> imm_i op_slti d s i
  | Lw (d, off, base) -> imm_i op_lw d base off
  | Lh (d, off, base) -> imm_i op_lh d base off
  | Lhu (d, off, base) -> imm_i op_lhu d base off
  | Lb (d, off, base) -> imm_i op_lb d base off
  | Lbu (d, off, base) -> imm_i op_lbu d base off
  | Sw (d, off, base) -> imm_i op_sw d base off
  | Sh (d, off, base) -> imm_i op_sh d base off
  | Sb (d, off, base) -> imm_i op_sb d base off
  | Lw4 (d, off, base) -> imm_i op_lw4 d base off
  | Sw4 (d, off, base) -> imm_i op_sw4 d base off
  | Beq (a, b, off) -> imm_i op_beq a b off
  | Bne (a, b, off) -> imm_i op_bne a b off
  | Blt (a, b, off) -> imm_i op_blt a b off
  | Bge (a, b, off) -> imm_i op_bge a b off
  | J target -> jump op_j target
  | Jal target -> jump op_jal target
  | Jr s ->
    check_reg s;
    (op_jr lsl 26) lor (s lsl 16)
  | Ei -> op_ei lsl 26
  | Di -> op_di lsl 26
  | Eret -> op_eret lsl 26
  | Wfi -> op_wfi lsl 26

let sign16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

let decode word =
  let op = (word lsr 26) land 0x3F in
  let rd = (word lsr 21) land 0x1F in
  let rs = (word lsr 16) land 0x1F in
  let rt = (word lsr 11) land 0x1F in
  let imm = word land 0xFFFF in
  let simm = sign16 imm in
  let shamt = word land 0x1F in
  let target = word land 0x3FFFFFF in
  if op = op_nop then Nop
  else if op = op_halt then Halt
  else if op = op_add then Add (rd, rs, rt)
  else if op = op_sub then Sub (rd, rs, rt)
  else if op = op_and then And (rd, rs, rt)
  else if op = op_or then Or (rd, rs, rt)
  else if op = op_xor then Xor (rd, rs, rt)
  else if op = op_slt then Slt (rd, rs, rt)
  else if op = op_sll then Sll (rd, rs, shamt)
  else if op = op_srl then Srl (rd, rs, shamt)
  else if op = op_mul then Mul (rd, rs, rt)
  else if op = op_addi then Addi (rd, rs, simm)
  else if op = op_andi then Andi (rd, rs, imm)
  else if op = op_ori then Ori (rd, rs, imm)
  else if op = op_xori then Xori (rd, rs, imm)
  else if op = op_lui then Lui (rd, imm)
  else if op = op_slti then Slti (rd, rs, simm)
  else if op = op_lw then Lw (rd, simm, rs)
  else if op = op_lh then Lh (rd, simm, rs)
  else if op = op_lhu then Lhu (rd, simm, rs)
  else if op = op_lb then Lb (rd, simm, rs)
  else if op = op_lbu then Lbu (rd, simm, rs)
  else if op = op_sw then Sw (rd, simm, rs)
  else if op = op_sh then Sh (rd, simm, rs)
  else if op = op_sb then Sb (rd, simm, rs)
  else if op = op_lw4 then Lw4 (rd, simm, rs)
  else if op = op_sw4 then Sw4 (rd, simm, rs)
  else if op = op_beq then Beq (rd, rs, simm)
  else if op = op_bne then Bne (rd, rs, simm)
  else if op = op_blt then Blt (rd, rs, simm)
  else if op = op_bge then Bge (rd, rs, simm)
  else if op = op_j then J target
  else if op = op_jal then Jal target
  else if op = op_jr then Jr rs
  else if op = op_ei then Ei
  else if op = op_di then Di
  else if op = op_eret then Eret
  else if op = op_wfi then Wfi
  else failwith (Printf.sprintf "Soc.Isa.decode: unknown opcode %d" op)

let to_string =
  let r = Printf.sprintf "r%d" in
  function
  | Nop -> "nop"
  | Halt -> "halt"
  | Add (d, s, t) -> Printf.sprintf "add %s, %s, %s" (r d) (r s) (r t)
  | Sub (d, s, t) -> Printf.sprintf "sub %s, %s, %s" (r d) (r s) (r t)
  | And (d, s, t) -> Printf.sprintf "and %s, %s, %s" (r d) (r s) (r t)
  | Or (d, s, t) -> Printf.sprintf "or %s, %s, %s" (r d) (r s) (r t)
  | Xor (d, s, t) -> Printf.sprintf "xor %s, %s, %s" (r d) (r s) (r t)
  | Slt (d, s, t) -> Printf.sprintf "slt %s, %s, %s" (r d) (r s) (r t)
  | Sll (d, s, sh) -> Printf.sprintf "sll %s, %s, %d" (r d) (r s) sh
  | Srl (d, s, sh) -> Printf.sprintf "srl %s, %s, %d" (r d) (r s) sh
  | Mul (d, s, t) -> Printf.sprintf "mul %s, %s, %s" (r d) (r s) (r t)
  | Addi (d, s, i) -> Printf.sprintf "addi %s, %s, %d" (r d) (r s) i
  | Andi (d, s, i) -> Printf.sprintf "andi %s, %s, %d" (r d) (r s) i
  | Ori (d, s, i) -> Printf.sprintf "ori %s, %s, %d" (r d) (r s) i
  | Xori (d, s, i) -> Printf.sprintf "xori %s, %s, %d" (r d) (r s) i
  | Lui (d, i) -> Printf.sprintf "lui %s, %d" (r d) i
  | Slti (d, s, i) -> Printf.sprintf "slti %s, %s, %d" (r d) (r s) i
  | Lw (d, off, b) -> Printf.sprintf "lw %s, %d(%s)" (r d) off (r b)
  | Lh (d, off, b) -> Printf.sprintf "lh %s, %d(%s)" (r d) off (r b)
  | Lhu (d, off, b) -> Printf.sprintf "lhu %s, %d(%s)" (r d) off (r b)
  | Lb (d, off, b) -> Printf.sprintf "lb %s, %d(%s)" (r d) off (r b)
  | Lbu (d, off, b) -> Printf.sprintf "lbu %s, %d(%s)" (r d) off (r b)
  | Sw (d, off, b) -> Printf.sprintf "sw %s, %d(%s)" (r d) off (r b)
  | Sh (d, off, b) -> Printf.sprintf "sh %s, %d(%s)" (r d) off (r b)
  | Sb (d, off, b) -> Printf.sprintf "sb %s, %d(%s)" (r d) off (r b)
  | Lw4 (d, off, b) -> Printf.sprintf "lw4 %s, %d(%s)" (r d) off (r b)
  | Sw4 (d, off, b) -> Printf.sprintf "sw4 %s, %d(%s)" (r d) off (r b)
  | Beq (a, b, off) -> Printf.sprintf "beq %s, %s, %d" (r a) (r b) off
  | Bne (a, b, off) -> Printf.sprintf "bne %s, %s, %d" (r a) (r b) off
  | Blt (a, b, off) -> Printf.sprintf "blt %s, %s, %d" (r a) (r b) off
  | Bge (a, b, off) -> Printf.sprintf "bge %s, %s, %d" (r a) (r b) off
  | J t -> Printf.sprintf "j %#x" t
  | Jal t -> Printf.sprintf "jal %#x" t
  | Jr s -> Printf.sprintf "jr %s" (r s)
  | Ei -> "ei"
  | Di -> "di"
  | Eret -> "eret"
  | Wfi -> "wfi"

let is_branch = function
  | Beq _ | Bne _ | Blt _ | Bge _ | J _ | Jal _ | Jr _ | Eret -> true
  | Nop | Halt | Add _ | Sub _ | And _ | Or _ | Xor _ | Slt _ | Sll _ | Srl _
  | Mul _ | Addi _ | Andi _ | Ori _ | Xori _ | Lui _ | Slti _ | Lw _ | Lh _
  | Lhu _ | Lb _ | Lbu _ | Sw _ | Sh _ | Sb _ | Lw4 _ | Sw4 _ | Ei | Di
  | Wfi ->
    false
