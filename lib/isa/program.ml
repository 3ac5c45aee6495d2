type item =
  | Label of string
  | Ins of Instr.labeled

type func = { fn_name : string; fn_start : int; fn_len : int }

type source = {
  src_functions : (string * item list) list;
  src_bounds : (string * int) list;
}

type t = {
  code : Instr.resolved array;
  base_address : int;
  functions : func list;
  loop_bounds : (int * int) list;
  entry : int;
}

exception Assembly_error of string

let error fmt = Format.kasprintf (fun s -> raise (Assembly_error s)) fmt

let default_base_address = 0x0040_0000 (* conventional MIPS text-segment base *)

let assemble ?(base_address = default_base_address) source =
  if source.src_functions = [] then error "no functions";
  if base_address land 3 <> 0 then error "misaligned base address";
  let labels = Hashtbl.create 64 in
  let add_label name index =
    if Hashtbl.mem labels name then error "duplicate label %s" name;
    Hashtbl.add labels name index
  in
  (* First pass: lay out functions, record label positions. *)
  let instructions = ref [] in
  let next_index = ref 0 in
  let functions =
    List.map
      (fun (fn_name, items) ->
        add_label fn_name !next_index;
        let fn_start = !next_index in
        List.iter
          (function
            | Label name -> add_label name !next_index
            | Ins i ->
              instructions := i :: !instructions;
              incr next_index)
          items;
        if !next_index = fn_start then error "empty function %s" fn_name;
        { fn_name; fn_start; fn_len = !next_index - fn_start })
      source.src_functions
  in
  let labeled_code = Array.of_list (List.rev !instructions) in
  (* Second pass: resolve symbolic targets to instruction indices. *)
  let resolve target =
    match Hashtbl.find_opt labels target with
    | Some index -> index
    | None -> error "undefined label %s" target
  in
  let code = Array.map (Instr.map_target resolve) labeled_code in
  let loop_bounds =
    List.map
      (fun (label, bound) ->
        if bound < 0 then error "negative loop bound on %s" label;
        (resolve label, bound))
      source.src_bounds
  in
  { code; base_address; functions; loop_bounds; entry = 0 }

let instruction_count t = Array.length t.code
let address_of_index t i = t.base_address + (4 * i)

let index_of_address t addr =
  if addr land 3 <> 0 then invalid_arg "Program.index_of_address: misaligned";
  let i = (addr - t.base_address) asr 2 in
  if i < 0 || i >= Array.length t.code then invalid_arg "Program.index_of_address: out of range";
  i

let instruction t i = t.code.(i)

let function_at t i =
  match List.find_opt (fun f -> i >= f.fn_start && i < f.fn_start + f.fn_len) t.functions with
  | Some f -> f
  | None -> invalid_arg "Program.function_at: index outside all functions"

let pp fmt t =
  List.iter
    (fun f ->
      Format.fprintf fmt "%s:@." f.fn_name;
      for i = f.fn_start to f.fn_start + f.fn_len - 1 do
        Format.fprintf fmt "  %08x  %a@." (address_of_index t i) Instr.pp_resolved t.code.(i)
      done)
    t.functions
