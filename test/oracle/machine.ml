(* The reference ISA interpreter, [Sim.Machine]'s oracle. *)

open Isa

type status =
  | Halted
  | Out_of_fuel

type result = {
  status : status;
  cycles : int;
  instructions : int;
  return_value : int;
  regs : int array;
}

exception Trap of string

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

(* 32-bit two's-complement wrapping on native ints. *)
let wrap32 x =
  let m = x land 0xFFFF_FFFF in
  if m >= 0x8000_0000 then m - 0x1_0000_0000 else m

let to_u32 x = x land 0xFFFF_FFFF

let initial_sp = 0x7FFF_FFF0
let data_alignment_mask = 3

let eval_binop op a b =
  match (op : Instr.binop) with
  | Add -> wrap32 (a + b)
  | Sub -> wrap32 (a - b)
  | Mul -> wrap32 (a * b)
  | Div -> if b = 0 then trap "division by zero" else wrap32 (a / b)
  | Rem -> if b = 0 then trap "rem by zero" else wrap32 (a mod b)
  | And -> a land b |> wrap32
  | Or -> a lor b |> wrap32
  | Xor -> a lxor b |> wrap32
  | Nor -> wrap32 (lnot (a lor b))
  | Slt -> if a < b then 1 else 0
  | Sltu -> if to_u32 a < to_u32 b then 1 else 0
  | Sllv -> wrap32 (to_u32 a lsl (b land 31))
  | Srlv -> wrap32 (to_u32 a lsr (b land 31))
  | Srav -> wrap32 (a asr (b land 31))

let eval_cond c a b =
  match (c : Instr.cond) with
  | Eq -> a = b
  | Ne -> a <> b
  | Lez -> a <= 0
  | Gtz -> a > 0
  | Ltz -> a < 0
  | Gez -> a >= 0

let run ?(max_steps = 50_000_000) ?(args = []) ?(memory_init = []) ?(fetch = fun _ -> 1)
    ?on_fetch program =
  let regs = Array.make Reg.count 0 in
  regs.(Reg.index Reg.sp) <- initial_sp;
  List.iteri
    (fun i v ->
      if i < 4 then regs.(Reg.index Reg.a0 + i) <- wrap32 v
      else invalid_arg "Machine.run: more than 4 arguments")
    args;
  (* Word-granular sparse memory; bytes are carved out of words. *)
  let memory : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun (addr, v) ->
      if addr land data_alignment_mask <> 0 then trap "unaligned memory_init at %#x" addr;
      Hashtbl.replace memory (addr asr 2) (wrap32 v))
    memory_init;
  let load_word addr =
    if addr land data_alignment_mask <> 0 then trap "unaligned lw at %#x" addr;
    match Hashtbl.find_opt memory (addr asr 2) with Some v -> v | None -> 0
  in
  let store_word addr v =
    if addr land data_alignment_mask <> 0 then trap "unaligned sw at %#x" addr;
    Hashtbl.replace memory (addr asr 2) (wrap32 v)
  in
  let load_byte addr =
    let word = match Hashtbl.find_opt memory (addr asr 2) with Some v -> v | None -> 0 in
    let shift = (addr land 3) * 8 in
    let byte = (to_u32 word lsr shift) land 0xFF in
    if byte >= 0x80 then byte - 0x100 else byte
  in
  let store_byte addr v =
    let word = match Hashtbl.find_opt memory (addr asr 2) with Some v -> v | None -> 0 in
    let shift = (addr land 3) * 8 in
    let cleared = to_u32 word land lnot (0xFF lsl shift) in
    Hashtbl.replace memory (addr asr 2) (wrap32 (cleared lor ((v land 0xFF) lsl shift)))
  in
  let get r = regs.(Reg.index r) in
  let set r v = if not (Reg.equal r Reg.zero) then regs.(Reg.index r) <- wrap32 v in
  let cycles = ref 0 in
  let executed = ref 0 in
  let pc = ref program.Program.entry in
  let halted = ref false in
  (try
     while (not !halted) && !executed < max_steps do
       let index = !pc in
       if index < 0 || index >= Program.instruction_count program then
         trap "pc outside text segment (index %d)" index;
       let addr = Program.address_of_index program index in
       cycles := !cycles + fetch addr;
       (match on_fetch with Some f -> f addr | None -> ());
       incr executed;
       let next = index + 1 in
       (match Program.instruction program index with
       | Alu (op, rd, rs, rt) ->
         set rd (eval_binop op (get rs) (get rt));
         pc := next
       | Alui (op, rd, rs, imm) ->
         set rd (eval_binop op (get rs) imm);
         pc := next
       | Shift (op, rd, rs, shamt) ->
         set rd (eval_binop op (get rs) shamt);
         pc := next
       | Li (rd, imm) ->
         set rd imm;
         pc := next
       | Lw (rt, off, base) ->
         set rt (load_word (get base + off));
         pc := next
       | Sw (rt, off, base) ->
         store_word (get base + off) (get rt);
         pc := next
       | Lb (rt, off, base) ->
         set rt (load_byte (get base + off));
         pc := next
       | Sb (rt, off, base) ->
         store_byte (get base + off) (get rt);
         pc := next
       | Beq2 (c, rs, rt, target) -> pc := if eval_cond c (get rs) (get rt) then target else next
       | Beqz (c, rs, target) -> pc := if eval_cond c (get rs) 0 then target else next
       | J target -> pc := target
       | Jal target ->
         set Reg.ra (Program.address_of_index program next);
         pc := target
       | Jr r -> pc := Program.index_of_address program (get r)
       | Nop -> pc := next
       | Halt -> halted := true)
     done
   with Invalid_argument msg -> trap "invalid jump: %s" msg);
  {
    status = (if !halted then Halted else Out_of_fuel);
    cycles = !cycles;
    instructions = !executed;
    return_value = regs.(Reg.index Reg.v0);
    regs = Array.copy regs;
  }

let run_trace program =
  let trace = ref [] in
  let result = run ~on_fetch:(fun addr -> trace := addr :: !trace) program in
  ignore result;
  List.rev !trace

let run_compiled ?max_steps ?fetch ?on_fetch (compiled : Minic.Compile.compiled) =
  run ?max_steps ~memory_init:compiled.Minic.Compile.data ?fetch ?on_fetch
    compiled.Minic.Compile.program
