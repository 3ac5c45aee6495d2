open Isa

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type compiled = {
  program : Program.t;
  data : (int * int) list;
  global_addresses : (string * int) list;
}

(* Where a name lives during code generation. *)
type binding =
  | Global_scalar of int        (* absolute address *)
  | Global_array of int         (* absolute base address *)
  | Local of int                (* slot index; byte offset is 4*slot from fp *)
  | Local_array of int          (* base slot *)

type env = {
  bindings : (string, binding) Hashtbl.t list;  (* innermost scope first *)
  fn : string;
}

let lookup env name =
  let rec go = function
    | [] -> error "%s: unbound %s (typechecker should have caught this)" env.fn name
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with Some b -> b | None -> go rest)
  in
  go env.bindings

let push_scope env = { env with bindings = Hashtbl.create 8 :: env.bindings }

let bind env name binding =
  match env.bindings with
  | scope :: _ -> Hashtbl.add scope name binding
  | [] -> assert false

(* Pre-scan a body for the total number of local slots it can need.
   Slots are never reused (gcc -O0 spirit), so the count is the plain
   sum over all declarations, both branches of every if included. *)
let rec slots_of_block block = List.fold_left (fun acc s -> acc + slots_of_stmt s) 0 block

and slots_of_stmt (s : Ast.stmt) =
  match s with
  | Decl _ -> 1
  | Decl_array (_, n) -> n
  | If (_, t, e) -> slots_of_block t + slots_of_block e
  | While { body; _ } -> slots_of_block body
  | For { body; _ } -> 1 + slots_of_block body
  | Assign _ | Store _ | Expr _ | Return _ -> 0

(* The code of one function is accumulated as a reversed item list. *)
type emitter = {
  mutable items : Program.item list;
  mutable bounds : (string * int) list;
  mutable next_label : int;
  mutable next_slot : int;
  fn_name : string;
  exit_label : string;
}

let emit em i = em.items <- Program.Ins i :: em.items
let place_label em l = em.items <- Program.Label l :: em.items

let fresh_label em stem =
  let l = Printf.sprintf "%s.%s%d" em.fn_name stem em.next_label in
  em.next_label <- em.next_label + 1;
  l

let alloc_slot em =
  let s = em.next_slot in
  em.next_slot <- em.next_slot + 1;
  s

let alloc_slots em n =
  let s = em.next_slot in
  em.next_slot <- em.next_slot + n;
  s

let slot_offset slot = 4 * slot

(* Stack push/pop of a single register, used both for expression
   spilling and for call-site save/restore. *)
let push em r =
  emit em (Instr.Alui (Instr.Add, Reg.sp, Reg.sp, -4));
  emit em (Instr.Sw (r, 0, Reg.sp))

let pop em r =
  emit em (Instr.Lw (r, 0, Reg.sp));
  emit em (Instr.Alui (Instr.Add, Reg.sp, Reg.sp, 4))

let move em dst src = if not (Reg.equal dst src) then emit em (Instr.Alui (Instr.Add, dst, src, 0))

let all_temporaries = Reg.temporaries

let arith_op : Ast.binop -> Instr.binop option = function
  | Add -> Some Instr.Add
  | Sub -> Some Instr.Sub
  | Mul -> Some Instr.Mul
  | Div -> Some Instr.Div
  | Mod -> Some Instr.Rem
  | Bitand -> Some Instr.And
  | Bitor -> Some Instr.Or
  | Bitxor -> Some Instr.Xor
  | Shl -> Some Instr.Sllv
  | Shr -> Some Instr.Srlv
  | Ashr -> Some Instr.Srav
  | Lt | Le | Gt | Ge | Eq | Ne | Logand | Logor -> None

(* gen_expr leaves the value of [e] in the returned register, which is
   always the head of [pool]. When the pool runs out the left operand is
   spilled to the stack and combined via the reserved scratch $at. *)
let rec gen_expr em env pool (e : Ast.expr) : Reg.t =
  let dst = match pool with r :: _ -> r | [] -> error "%s: empty register pool" env.fn in
  (match e with
  | Int n -> emit em (Instr.Li (dst, n))
  | Var v -> (
    match lookup env v with
    | Local slot -> emit em (Instr.Lw (dst, slot_offset slot, Reg.fp))
    | Global_scalar addr ->
      emit em (Instr.Li (dst, addr));
      emit em (Instr.Lw (dst, 0, dst))
    | Global_array _ | Local_array _ -> error "%s: array %s used as scalar" env.fn v)
  | Index (a, idx) ->
    let r = gen_expr em env pool idx in
    emit em (Instr.Shift (Instr.Sllv, r, r, 2));
    (match lookup env a with
    | Global_array base ->
      emit em (Instr.Li (Reg.at, base));
      emit em (Instr.Alu (Instr.Add, r, r, Reg.at));
      emit em (Instr.Lw (r, 0, r))
    | Local_array base_slot ->
      emit em (Instr.Alu (Instr.Add, r, r, Reg.fp));
      emit em (Instr.Lw (r, slot_offset base_slot, r))
    | Global_scalar _ | Local _ -> error "%s: scalar %s indexed" env.fn a)
  | Unop (op, e1) -> (
    let r = gen_expr em env pool e1 in
    match op with
    | Neg -> emit em (Instr.Alu (Instr.Sub, r, Reg.zero, r))
    | Bitnot -> emit em (Instr.Alu (Instr.Nor, r, r, Reg.zero))
    | Lognot -> emit em (Instr.Alui (Instr.Sltu, r, r, 1)))
  | Binop (Logand, a, b) ->
    let l_false = fresh_label em "and_false" and l_end = fresh_label em "and_end" in
    let r = gen_expr em env pool a in
    emit em (Instr.Beqz (Instr.Eq, r, l_false));
    let r' = gen_expr em env pool b in
    assert (Reg.equal r r');
    (* Normalise to 0/1. *)
    emit em (Instr.Alu (Instr.Sltu, r, Reg.zero, r));
    emit em (Instr.J l_end);
    place_label em l_false;
    emit em (Instr.Li (r, 0));
    place_label em l_end
  | Binop (Logor, a, b) ->
    let l_true = fresh_label em "or_true" and l_end = fresh_label em "or_end" in
    let r = gen_expr em env pool a in
    emit em (Instr.Beqz (Instr.Ne, r, l_true));
    let r' = gen_expr em env pool b in
    assert (Reg.equal r r');
    emit em (Instr.Alu (Instr.Sltu, r, Reg.zero, r));
    emit em (Instr.J l_end);
    place_label em l_true;
    emit em (Instr.Li (r, 1));
    place_label em l_end
  | Binop (op, a, b) ->
    gen_binop em env pool op a b
  | Call (f, args) ->
    (* Save the temporaries currently holding enclosing-expression
       values; everything is restored after the call returns. *)
    let in_use = List.filter (fun r -> not (List.exists (Reg.equal r) pool)) all_temporaries in
    List.iter (push em) in_use;
    let nargs = List.length args in
    if nargs > 4 then error "%s: call with more than 4 args" env.fn;
    (* Arguments are evaluated left-to-right into the (now fully free)
       temporaries and parked on the stack, then popped into $a3..$a0. *)
    List.iter
      (fun arg ->
        let r = gen_expr em env all_temporaries arg in
        push em r)
      args;
    for i = nargs - 1 downto 0 do
      pop em (Reg.of_index (Reg.index Reg.a0 + i))
    done;
    emit em (Instr.Jal f);
    move em dst Reg.v0;
    List.iter (pop em) (List.rev in_use));
  dst

and gen_binop em env pool op a b =
  let combine r_left r_right =
    match op with
    | Ast.Lt -> emit em (Instr.Alu (Instr.Slt, r_left, r_left, r_right))
    | Ast.Gt -> emit em (Instr.Alu (Instr.Slt, r_left, r_right, r_left))
    | Ast.Le ->
      (* a <= b  <=>  !(b < a) *)
      emit em (Instr.Alu (Instr.Slt, r_left, r_right, r_left));
      emit em (Instr.Alui (Instr.Xor, r_left, r_left, 1))
    | Ast.Ge ->
      emit em (Instr.Alu (Instr.Slt, r_left, r_left, r_right));
      emit em (Instr.Alui (Instr.Xor, r_left, r_left, 1))
    | Ast.Eq ->
      emit em (Instr.Alu (Instr.Xor, r_left, r_left, r_right));
      emit em (Instr.Alui (Instr.Sltu, r_left, r_left, 1))
    | Ast.Ne ->
      emit em (Instr.Alu (Instr.Xor, r_left, r_left, r_right));
      emit em (Instr.Alu (Instr.Sltu, r_left, Reg.zero, r_left))
    | _ -> (
      match arith_op op with
      | Some iop -> emit em (Instr.Alu (iop, r_left, r_left, r_right))
      | None -> assert false)
  in
  match pool with
  | [] -> error "%s: empty register pool" env.fn
  | [ r ] ->
    (* Spill path: left value waits on the stack while the only
       register computes the right value. *)
    let r1 = gen_expr em env [ r ] a in
    push em r1;
    let r2 = gen_expr em env [ r ] b in
    assert (Reg.equal r1 r2);
    pop em Reg.at;
    (* at = left, r = right; combine into r with left first. *)
    let result_in_r =
      match op with
      | Ast.Lt -> Instr.Alu (Instr.Slt, r, Reg.at, r) :: []
      | Ast.Gt -> Instr.Alu (Instr.Slt, r, r, Reg.at) :: []
      | Ast.Le -> [ Instr.Alu (Instr.Slt, r, r, Reg.at); Instr.Alui (Instr.Xor, r, r, 1) ]
      | Ast.Ge -> [ Instr.Alu (Instr.Slt, r, Reg.at, r); Instr.Alui (Instr.Xor, r, r, 1) ]
      | Ast.Eq -> [ Instr.Alu (Instr.Xor, r, Reg.at, r); Instr.Alui (Instr.Sltu, r, r, 1) ]
      | Ast.Ne -> [ Instr.Alu (Instr.Xor, r, Reg.at, r); Instr.Alu (Instr.Sltu, r, Reg.zero, r) ]
      | _ -> (
        match arith_op op with
        | Some iop -> [ Instr.Alu (iop, r, Reg.at, r) ]
        | None -> assert false)
    in
    List.iter (emit em) result_in_r
  | r1 :: rest ->
    let ra_ = gen_expr em env (r1 :: rest) a in
    let rb = gen_expr em env rest b in
    combine ra_ rb

(* Store the value of [r] into the scalar [v]. *)
let gen_assign em env v r =
  match lookup env v with
  | Local slot -> emit em (Instr.Sw (r, slot_offset slot, Reg.fp))
  | Global_scalar addr ->
    emit em (Instr.Li (Reg.at, addr));
    emit em (Instr.Sw (r, 0, Reg.at))
  | Global_array _ | Local_array _ -> error "%s: cannot assign to array %s" env.fn v

let rec gen_block em env block =
  let env = push_scope env in
  List.iter (gen_stmt em env) block

and gen_stmt em env (s : Ast.stmt) =
  match s with
  | Decl (v, e) ->
    let r = gen_expr em env all_temporaries e in
    let slot = alloc_slot em in
    bind env v (Local slot);
    emit em (Instr.Sw (r, slot_offset slot, Reg.fp))
  | Decl_array (v, n) ->
    bind env v (Local_array (alloc_slots em n))
  | Assign (v, e) ->
    let r = gen_expr em env all_temporaries e in
    gen_assign em env v r
  | Store (a, idx, e) -> (
    let ri = gen_expr em env all_temporaries idx in
    let rest = List.filter (fun r -> not (Reg.equal r ri)) all_temporaries in
    let re = gen_expr em env rest e in
    emit em (Instr.Shift (Instr.Sllv, ri, ri, 2));
    match lookup env a with
    | Global_array base ->
      emit em (Instr.Li (Reg.at, base));
      emit em (Instr.Alu (Instr.Add, ri, ri, Reg.at));
      emit em (Instr.Sw (re, 0, ri))
    | Local_array base_slot ->
      emit em (Instr.Alu (Instr.Add, ri, ri, Reg.fp));
      emit em (Instr.Sw (re, slot_offset base_slot, ri))
    | Global_scalar _ | Local _ -> error "%s: scalar %s indexed" env.fn a)
  | If (c, then_, else_) ->
    let l_else = fresh_label em "else" and l_end = fresh_label em "endif" in
    let r = gen_expr em env all_temporaries c in
    emit em (Instr.Beqz (Instr.Eq, r, l_else));
    gen_block em env then_;
    emit em (Instr.J l_end);
    place_label em l_else;
    gen_block em env else_;
    place_label em l_end
  | While { cond; bound; body } ->
    let l_head = fresh_label em "while" and l_end = fresh_label em "endwhile" in
    em.bounds <- (l_head, bound) :: em.bounds;
    place_label em l_head;
    let r = gen_expr em env all_temporaries cond in
    emit em (Instr.Beqz (Instr.Eq, r, l_end));
    gen_block em env body;
    emit em (Instr.J l_head);
    place_label em l_end
  | For { index; start; stop; bound; body } ->
    let b =
      match Ast.for_bound ~start ~stop ~bound with
      | Some b -> b
      | None -> error "%s: for loop without derivable bound" env.fn
    in
    let l_head = fresh_label em "for" and l_end = fresh_label em "endfor" in
    let env = push_scope env in
    let slot = alloc_slot em in
    bind env index (Local slot);
    let r = gen_expr em env all_temporaries start in
    emit em (Instr.Sw (r, slot_offset slot, Reg.fp));
    em.bounds <- (l_head, b) :: em.bounds;
    place_label em l_head;
    (* index < stop ? *)
    let r = gen_expr em env all_temporaries (Ast.Binop (Ast.Lt, Ast.Var index, stop)) in
    emit em (Instr.Beqz (Instr.Eq, r, l_end));
    gen_block em env body;
    (* index++ *)
    (match all_temporaries with
    | r :: _ ->
      emit em (Instr.Lw (r, slot_offset slot, Reg.fp));
      emit em (Instr.Alui (Instr.Add, r, r, 1));
      emit em (Instr.Sw (r, slot_offset slot, Reg.fp))
    | [] -> assert false);
    emit em (Instr.J l_head);
    place_label em l_end
  | Expr e -> ignore (gen_expr em env all_temporaries e)
  | Return None -> emit em (Instr.J em.exit_label)
  | Return (Some e) ->
    let r = gen_expr em env all_temporaries e in
    move em Reg.v0 r;
    emit em (Instr.J em.exit_label)

let compile_function globals_env (f : Ast.func) ~is_main =
  let nslots = List.length f.params + slots_of_block f.body in
  let frame_size = 4 * (nslots + 2) in
  let em =
    {
      items = [];
      bounds = [];
      next_label = 0;
      next_slot = 0;
      fn_name = f.fname;
      exit_label = f.fname ^ ".exit";
    }
  in
  (* Prologue: allocate frame, save ra/fp, establish fp, spill params. *)
  emit em (Instr.Alui (Instr.Add, Reg.sp, Reg.sp, -frame_size));
  emit em (Instr.Sw (Reg.ra, 4 * nslots, Reg.sp));
  emit em (Instr.Sw (Reg.fp, (4 * nslots) + 4, Reg.sp));
  move em Reg.fp Reg.sp;
  let env = { bindings = [ Hashtbl.create 8; globals_env ]; fn = f.fname } in
  List.iteri
    (fun i p ->
      let slot = alloc_slot em in
      bind env p (Local slot);
      emit em (Instr.Sw (Reg.of_index (Reg.index Reg.a0 + i), slot_offset slot, Reg.fp)))
    f.params;
  gen_block em env f.body;
  (* Epilogue. *)
  place_label em em.exit_label;
  move em Reg.sp Reg.fp;
  emit em (Instr.Lw (Reg.ra, 4 * nslots, Reg.sp));
  emit em (Instr.Lw (Reg.fp, (4 * nslots) + 4, Reg.sp));
  emit em (Instr.Alui (Instr.Add, Reg.sp, Reg.sp, frame_size));
  if is_main then emit em Instr.Halt else emit em (Instr.Jr Reg.ra);
  ((f.fname, List.rev em.items), em.bounds)

let default_data_base = 0x1000_0000

let compile ?base_address ?(data_base = default_data_base) (program : Ast.program) =
  Typecheck.check program;
  (* Lay out globals in the data segment. *)
  let globals_env = Hashtbl.create 16 in
  let data = ref [] in
  let next_addr = ref data_base in
  let global_addresses =
    List.map
      (fun (name, g) ->
        let addr = !next_addr in
        (match g with
        | Ast.Scalar v ->
          Hashtbl.add globals_env name (Global_scalar addr);
          data := (addr, v) :: !data;
          next_addr := !next_addr + 4
        | Ast.Array xs ->
          Hashtbl.add globals_env name (Global_array addr);
          Array.iteri (fun i v -> data := (addr + (4 * i), v) :: !data) xs;
          next_addr := !next_addr + (4 * Array.length xs));
        (name, addr))
      program.globals
  in
  (* main first: the program entry is the first instruction. *)
  let main, others = List.partition (fun (f : Ast.func) -> f.fname = "main") program.funcs in
  let ordered = main @ others in
  let compiled = List.map (fun f -> compile_function globals_env f ~is_main:(f.Ast.fname = "main")) ordered in
  let src_functions = List.map fst compiled in
  let src_bounds = List.concat_map snd compiled in
  let program =
    try Program.assemble ?base_address { src_functions; src_bounds }
    with Program.Assembly_error msg -> error "assembly failed: %s" msg
  in
  { program; data = List.rev !data; global_addresses }
