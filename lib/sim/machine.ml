type status =
  | Halted
  | Out_of_fuel

type result = {
  status : status;
  instructions : int;
  return_value : int;
}

exception Trap of string

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

let wrap32 x =
  let m = x land 0xFFFF_FFFF in
  if m >= 0x8000_0000 then m - 0x1_0000_0000 else m

let to_u32 x = x land 0xFFFF_FFFF
let initial_sp = 0x7FFF_FFF0

(* 64 KiB pages (16 Ki words); word indexes below 2^29 cover every
   31-bit byte address the ISA can form, stack top included. *)
let page_bits = 14
let page_words = 1 lsl page_bits
let page_mask = page_words - 1
let page_count = 1 lsl (29 - page_bits)
let no_page : int array = [||]

type t = {
  code : Code.t;
  regs : int array;
  pages : int array array;  (** demand-allocated; [no_page] until written *)
  data : (int * int) array;  (** (word index, wrapped value) image *)
}

let sp_index = Isa.Reg.index Isa.Reg.sp
let ra_index = Isa.Reg.index Isa.Reg.ra
let v0_index = Isa.Reg.index Isa.Reg.v0

let page_of t widx =
  let p = widx lsr page_bits in
  let pg = t.pages.(p) in
  if pg != no_page then pg
  else begin
    let fresh = Array.make page_words 0 in
    t.pages.(p) <- fresh;
    fresh
  end

let check_word_addr addr what =
  if addr land 3 <> 0 then trap "unaligned %s at %#x" what addr;
  if addr < 0 || addr asr 2 >= page_count * page_words then trap "wild %s at %#x" what addr

let load_word t addr =
  check_word_addr addr "lw";
  let widx = addr asr 2 in
  let pg = t.pages.(widx lsr page_bits) in
  if pg == no_page then 0 else Array.unsafe_get pg (widx land page_mask)

let store_word t addr v =
  check_word_addr addr "sw";
  let widx = addr asr 2 in
  Array.unsafe_set (page_of t widx) (widx land page_mask) (wrap32 v)

let check_byte_addr addr =
  if addr < 0 || addr asr 2 >= page_count * page_words then trap "wild byte access at %#x" addr

let load_byte t addr =
  check_byte_addr addr;
  let widx = addr asr 2 in
  let pg = t.pages.(widx lsr page_bits) in
  let word = if pg == no_page then 0 else Array.unsafe_get pg (widx land page_mask) in
  let shift = (addr land 3) * 8 in
  let byte = (to_u32 word lsr shift) land 0xFF in
  if byte >= 0x80 then byte - 0x100 else byte

let store_byte t addr v =
  check_byte_addr addr;
  let widx = addr asr 2 in
  let pg = page_of t widx in
  let word = Array.unsafe_get pg (widx land page_mask) in
  let shift = (addr land 3) * 8 in
  let cleared = to_u32 word land lnot (0xFF lsl shift) in
  Array.unsafe_set pg (widx land page_mask) (wrap32 (cleared lor ((v land 0xFF) lsl shift)))

let reset t =
  Array.fill t.pages 0 page_count no_page;
  Array.iter
    (fun (widx, v) -> Array.unsafe_set (page_of t widx) (widx land page_mask) v)
    t.data;
  Array.fill t.regs 0 (Array.length t.regs) 0;
  t.regs.(sp_index) <- initial_sp

let create ~code ~data =
  let data =
    Array.of_list
      (List.map
         (fun (addr, v) ->
           if addr land 3 <> 0 then
             invalid_arg (Printf.sprintf "Sim.Machine.create: unaligned data word at %#x" addr);
           if addr < 0 || addr asr 2 >= page_count * page_words then
             invalid_arg (Printf.sprintf "Sim.Machine.create: data word out of range at %#x" addr);
           (addr asr 2, wrap32 v))
         data)
  in
  let t =
    {
      code;
      regs = Array.make Isa.Reg.count 0;
      pages = Array.make page_count no_page;
      data;
    }
  in
  reset t;
  t

let registers t = t.regs

(* The ALU and branch semantics over the codes assigned by
   Code.binop_code / cond_code. *)
let exec_binop op a b =
  match op with
  | 0 -> wrap32 (a + b)
  | 1 -> wrap32 (a - b)
  | 2 -> wrap32 (a * b)
  | 3 -> if b = 0 then trap "division by zero" else wrap32 (a / b)
  | 4 -> if b = 0 then trap "rem by zero" else wrap32 (a mod b)
  | 5 -> wrap32 (a land b)
  | 6 -> wrap32 (a lor b)
  | 7 -> wrap32 (a lxor b)
  | 8 -> wrap32 (lnot (a lor b))
  | 9 -> if a < b then 1 else 0
  | 10 -> if to_u32 a < to_u32 b then 1 else 0
  | 11 -> wrap32 (to_u32 a lsl (b land 31))
  | 12 -> wrap32 (to_u32 a lsr (b land 31))
  | _ -> wrap32 (a asr (b land 31))

let exec_cond c a b =
  match c with
  | 0 -> a = b
  | 1 -> a <> b
  | 2 -> a <= 0
  | 3 -> a > 0
  | 4 -> a < 0
  | _ -> a >= 0

let run ?(max_steps = 50_000_000) ~on_fetch t =
  reset t;
  let code = t.code in
  let kind = code.Code.kind
  and sub = code.Code.sub
  and fa = code.Code.a
  and fb = code.Code.b
  and fc = code.Code.c in
  let n = code.Code.count and base_address = code.Code.base_address in
  let regs = t.regs in
  let executed = ref 0 and pc = ref code.Code.entry in
  let halted = ref false in
  while (not !halted) && !executed < max_steps do
    let i = !pc in
    if i < 0 || i >= n then trap "pc outside text segment (index %d)" i;
    on_fetch i;
    incr executed;
    let k = Array.unsafe_get kind i in
    if k <= Code.k_alui then begin
      let av = Array.unsafe_get regs (Array.unsafe_get fb i) in
      let bv =
        if k = Code.k_alu then Array.unsafe_get regs (Array.unsafe_get fc i)
        else Array.unsafe_get fc i
      in
      let v = exec_binop (Array.unsafe_get sub i) av bv in
      let rd = Array.unsafe_get fa i in
      if rd <> 0 then Array.unsafe_set regs rd v;
      pc := i + 1
    end
    else if k = Code.k_li then begin
      let rd = Array.unsafe_get fa i in
      if rd <> 0 then Array.unsafe_set regs rd (Array.unsafe_get fc i);
      pc := i + 1
    end
    else if k <= Code.k_sb then begin
      let addr = Array.unsafe_get regs (Array.unsafe_get fb i) + Array.unsafe_get fc i in
      let rt = Array.unsafe_get fa i in
      (if k = Code.k_lw then begin
         let v = load_word t addr in
         if rt <> 0 then Array.unsafe_set regs rt v
       end
       else if k = Code.k_sw then store_word t addr (Array.unsafe_get regs rt)
       else if k = Code.k_lb then begin
         let v = load_byte t addr in
         if rt <> 0 then Array.unsafe_set regs rt v
       end
       else store_byte t addr (Array.unsafe_get regs rt));
      pc := i + 1
    end
    else if k = Code.k_beq2 then
      pc :=
        if
          exec_cond (Array.unsafe_get sub i)
            (Array.unsafe_get regs (Array.unsafe_get fa i))
            (Array.unsafe_get regs (Array.unsafe_get fb i))
        then Array.unsafe_get fc i
        else i + 1
    else if k = Code.k_beqz then
      pc :=
        if exec_cond (Array.unsafe_get sub i) (Array.unsafe_get regs (Array.unsafe_get fa i)) 0
        then Array.unsafe_get fc i
        else i + 1
    else if k = Code.k_j then pc := Array.unsafe_get fc i
    else if k = Code.k_jal then begin
      regs.(ra_index) <- wrap32 (base_address + (4 * (i + 1)));
      pc := Array.unsafe_get fc i
    end
    else if k = Code.k_jr then begin
      let addr = Array.unsafe_get regs (Array.unsafe_get fa i) in
      if addr land 3 <> 0 then trap "invalid jump: Program.index_of_address: misaligned";
      let idx = (addr - base_address) asr 2 in
      if idx < 0 || idx >= n then trap "invalid jump: Program.index_of_address: out of range";
      pc := idx
    end
    else if k = Code.k_nop then pc := i + 1
    else halted := true
  done;
  {
    status = (if !halted then Halted else Out_of_fuel);
    instructions = !executed;
    return_value = regs.(v0_index);
  }
