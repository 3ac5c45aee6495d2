module Ast = Minic.Ast

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

exception Return_value of int

let wrap32 x =
  let m = x land 0xFFFF_FFFF in
  if m >= 0x8000_0000 then m - 0x1_0000_0000 else m

let to_u32 x = x land 0xFFFF_FFFF

type cell =
  | Scalar of int ref
  | Array of int array

(* Lexical scopes: innermost first; a call frame starts a fresh list on
   top of the globals. *)
type env = {
  globals : (string, cell) Hashtbl.t;
  mutable scopes : (string, cell) Hashtbl.t list;
  funcs : (string, Ast.func) Hashtbl.t;
  mutable fuel : int;
}

let lookup env name =
  let rec go = function
    | [] -> (
      match Hashtbl.find_opt env.globals name with
      | Some c -> c
      | None -> error "unbound %s" name)
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with Some c -> c | None -> go rest)
  in
  go env.scopes

let declare env name cell =
  match env.scopes with
  | scope :: _ -> Hashtbl.replace scope name cell
  | [] -> error "declaration outside any scope"

let scalar env name =
  match lookup env name with
  | Scalar r -> r
  | Array _ -> error "%s is an array" name

let array env name =
  match lookup env name with
  | Array a -> a
  | Scalar _ -> error "%s is a scalar" name

let tick env =
  env.fuel <- env.fuel - 1;
  if env.fuel <= 0 then error "out of fuel"

let rec eval env (e : Ast.expr) =
  match e with
  | Int v -> wrap32 v
  | Var name -> !(scalar env name)
  | Index (name, idx) ->
    let a = array env name in
    let k = eval env idx in
    if k < 0 || k >= Array.length a then error "%s[%d] out of bounds" name k;
    a.(k)
  | Unop (op, e1) -> (
    let v = eval env e1 in
    match op with
    | Neg -> wrap32 (-v)
    | Lognot -> if v = 0 then 1 else 0
    | Bitnot -> wrap32 (lnot v))
  | Binop (Logand, a, b) -> if eval env a = 0 then 0 else if eval env b <> 0 then 1 else 0
  | Binop (Logor, a, b) -> if eval env a <> 0 then 1 else if eval env b <> 0 then 1 else 0
  | Binop (op, a, b) -> (
    let x = eval env a in
    let y = eval env b in
    match op with
    | Add -> wrap32 (x + y)
    | Sub -> wrap32 (x - y)
    | Mul -> wrap32 (x * y)
    | Div -> if y = 0 then error "division by zero" else wrap32 (x / y)
    | Mod -> if y = 0 then error "mod by zero" else wrap32 (x mod y)
    | Bitand -> wrap32 (x land y)
    | Bitor -> wrap32 (x lor y)
    | Bitxor -> wrap32 (x lxor y)
    | Shl -> wrap32 (to_u32 x lsl (y land 31))
    | Shr -> wrap32 (to_u32 x lsr (y land 31))
    | Ashr -> wrap32 (x asr (y land 31))
    | Lt -> if x < y then 1 else 0
    | Le -> if x <= y then 1 else 0
    | Gt -> if x > y then 1 else 0
    | Ge -> if x >= y then 1 else 0
    | Eq -> if x = y then 1 else 0
    | Ne -> if x <> y then 1 else 0
    | Logand | Logor -> assert false)
  | Call (name, args) ->
    let values = List.map (eval env) args in
    call env name values

and call env name values =
  let f =
    match Hashtbl.find_opt env.funcs name with
    | Some f -> f
    | None -> error "undefined function %s" name
  in
  if List.length values <> List.length f.Ast.params then error "arity mismatch calling %s" name;
  let frame = Hashtbl.create 8 in
  List.iter2 (fun p v -> Hashtbl.replace frame p (Scalar (ref v))) f.Ast.params values;
  let saved = env.scopes in
  env.scopes <- [ frame ];
  let result =
    try
      exec_block env f.Ast.body;
      0 (* fell off the end *)
    with Return_value v -> v
  in
  env.scopes <- saved;
  result

and exec_block env block =
  env.scopes <- Hashtbl.create 8 :: env.scopes;
  List.iter (exec env) block;
  env.scopes <- List.tl env.scopes

and exec env (s : Ast.stmt) =
  tick env;
  match s with
  | Decl (name, e) -> declare env name (Scalar (ref (eval env e)))
  | Decl_array (name, n) -> declare env name (Array (Array.make n 0))
  | Assign (name, e) -> scalar env name := eval env e
  | Store (name, idx, e) ->
    let a = array env name in
    let k = eval env idx in
    let v = eval env e in
    if k < 0 || k >= Array.length a then error "%s[%d] out of bounds" name k;
    a.(k) <- v
  | If (c, then_, else_) -> exec_block env (if eval env c <> 0 then then_ else else_)
  | While { cond; body; _ } ->
    while eval env cond <> 0 do
      tick env;
      exec_block env body
    done
  | For { index; start; stop; body; _ } ->
    let frame = Hashtbl.create 1 in
    let i = ref (eval env start) in
    Hashtbl.replace frame index (Scalar i);
    env.scopes <- frame :: env.scopes;
    while !i < eval env stop do
      tick env;
      exec_block env body;
      i := wrap32 (!i + 1)
    done;
    env.scopes <- List.tl env.scopes
  | Expr e -> ignore (eval env e)
  | Return None -> raise (Return_value 0)
  | Return (Some e) -> raise (Return_value (eval env e))

let run ?(fuel = 10_000_000) (program : Ast.program) =
  let env =
    {
      globals = Hashtbl.create 16;
      scopes = [];
      funcs = Hashtbl.create 16;
      fuel;
    }
  in
  List.iter
    (fun (name, g) ->
      Hashtbl.replace env.globals name
        (match g with
        | Ast.Scalar v -> Scalar (ref (wrap32 v))
        | Ast.Array xs -> Array (Array.map wrap32 xs)))
    program.Ast.globals;
  List.iter (fun (f : Ast.func) -> Hashtbl.replace env.funcs f.Ast.fname f) program.Ast.funcs;
  call env "main" []
