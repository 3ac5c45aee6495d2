type label = string

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Nor
  | Slt
  | Sltu
  | Sllv
  | Srlv
  | Srav

type cond =
  | Eq
  | Ne
  | Lez
  | Gtz
  | Ltz
  | Gez

type 'target t =
  | Alu of binop * Reg.t * Reg.t * Reg.t
  | Alui of binop * Reg.t * Reg.t * int
  | Shift of binop * Reg.t * Reg.t * int
  | Li of Reg.t * int
  | Lw of Reg.t * int * Reg.t
  | Sw of Reg.t * int * Reg.t
  | Lb of Reg.t * int * Reg.t
  | Sb of Reg.t * int * Reg.t
  | Beq2 of cond * Reg.t * Reg.t * 'target
  | Beqz of cond * Reg.t * 'target
  | J of 'target
  | Jal of 'target
  | Jr of Reg.t
  | Nop
  | Halt

type labeled = label t
type resolved = int t

let map_target f = function
  | Alu (op, rd, rs, rt) -> Alu (op, rd, rs, rt)
  | Alui (op, rd, rs, imm) -> Alui (op, rd, rs, imm)
  | Shift (op, rd, rs, shamt) -> Shift (op, rd, rs, shamt)
  | Li (rd, imm) -> Li (rd, imm)
  | Lw (rt, off, base) -> Lw (rt, off, base)
  | Sw (rt, off, base) -> Sw (rt, off, base)
  | Lb (rt, off, base) -> Lb (rt, off, base)
  | Sb (rt, off, base) -> Sb (rt, off, base)
  | Beq2 (c, rs, rt, target) -> Beq2 (c, rs, rt, f target)
  | Beqz (c, rs, target) -> Beqz (c, rs, f target)
  | J target -> J (f target)
  | Jal target -> Jal (f target)
  | Jr r -> Jr r
  | Nop -> Nop
  | Halt -> Halt

let is_control_flow = function
  | Beq2 _ | Beqz _ | J _ | Jal _ | Jr _ | Halt -> true
  | Alu _ | Alui _ | Shift _ | Li _ | Lw _ | Sw _ | Lb _ | Sb _ | Nop -> false

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Nor -> "nor"
  | Slt -> "slt"
  | Sltu -> "sltu"
  | Sllv -> "sll"
  | Srlv -> "srl"
  | Srav -> "sra"

let cond_name = function
  | Eq -> "beq"
  | Ne -> "bne"
  | Lez -> "blez"
  | Gtz -> "bgtz"
  | Ltz -> "bltz"
  | Gez -> "bgez"

let pp pp_target fmt = function
  | Alu (op, rd, rs, rt) ->
    Format.fprintf fmt "%s %a, %a, %a" (binop_name op) Reg.pp rd Reg.pp rs Reg.pp rt
  | Alui (op, rd, rs, imm) ->
    Format.fprintf fmt "%si %a, %a, %d" (binop_name op) Reg.pp rd Reg.pp rs imm
  | Shift (op, rd, rs, shamt) ->
    Format.fprintf fmt "%s %a, %a, %d" (binop_name op) Reg.pp rd Reg.pp rs shamt
  | Li (rd, imm) -> Format.fprintf fmt "li %a, %d" Reg.pp rd imm
  | Lw (rt, off, base) -> Format.fprintf fmt "lw %a, %d(%a)" Reg.pp rt off Reg.pp base
  | Sw (rt, off, base) -> Format.fprintf fmt "sw %a, %d(%a)" Reg.pp rt off Reg.pp base
  | Lb (rt, off, base) -> Format.fprintf fmt "lb %a, %d(%a)" Reg.pp rt off Reg.pp base
  | Sb (rt, off, base) -> Format.fprintf fmt "sb %a, %d(%a)" Reg.pp rt off Reg.pp base
  | Beq2 (c, rs, rt, target) ->
    Format.fprintf fmt "%s %a, %a, %a" (cond_name c) Reg.pp rs Reg.pp rt pp_target target
  | Beqz (c, rs, target) ->
    Format.fprintf fmt "%s %a, %a" (cond_name c) Reg.pp rs pp_target target
  | J target -> Format.fprintf fmt "j %a" pp_target target
  | Jal target -> Format.fprintf fmt "jal %a" pp_target target
  | Jr r -> Format.fprintf fmt "jr %a" Reg.pp r
  | Nop -> Format.pp_print_string fmt "nop"
  | Halt -> Format.pp_print_string fmt "halt"

let pp_resolved fmt i = pp Format.pp_print_int fmt i
