(* Tests for CFG recovery: block structure, interprocedural expansion,
   dominance, loop detection, and conformance of the graph with real
   execution traces from the interpreter. *)

open Isa
module G = Cfg.Graph
module D = Cfg.Dominance
module L = Cfg.Loop

let ins i = Program.Ins i
let label l = Program.Label l

let assemble ?(bounds = []) functions =
  Program.assemble { src_functions = functions; src_bounds = bounds }

let compile_minic ?(globals = []) funcs =
  (Minic.Compile.compile (Minic.Dsl.program ~globals funcs)).Minic.Compile.program

(* --- basic block structure -------------------------------------------- *)

let test_straightline () =
  let p = assemble [ ("main", [ ins Instr.Nop; ins Instr.Nop; ins Instr.Halt ]) ] in
  let g = G.build p in
  Alcotest.(check int) "single block" 1 (G.node_count g);
  Alcotest.(check (list int)) "exit" [ 0 ] g.G.exits;
  Alcotest.(check int) "covers all" 3 (G.node g 0).G.len

let test_diamond () =
  let p =
    assemble
      [ ( "main",
          [ ins (Instr.Beqz (Instr.Eq, Reg.t0, "else"))
          ; ins Instr.Nop
          ; ins (Instr.J "join")
          ; label "else"
          ; ins Instr.Nop
          ; label "join"
          ; ins Instr.Halt
          ] )
      ]
  in
  let g = G.build p in
  Alcotest.(check int) "4 blocks" 4 (G.node_count g);
  (* Entry has two successors; both lead to the join. *)
  Alcotest.(check int) "entry succ" 2 (List.length (G.successors g g.G.entry));
  let join = List.hd g.G.exits in
  Alcotest.(check int) "join preds" 2 (List.length (G.predecessors g join))

let test_addresses () =
  let p = assemble [ ("main", [ ins Instr.Nop; ins Instr.Halt ]) ] in
  let g = G.build p in
  Alcotest.(check (list int)) "addresses" [ 0x400000; 0x400004 ] (G.addresses g (G.node g 0))

(* --- interprocedural expansion ----------------------------------------- *)

let callee_body = [ ins (Instr.Alu (Instr.Add, Reg.v0, Reg.a0, Reg.a0)); ins (Instr.Jr Reg.ra) ]

let test_call_expansion () =
  let p =
    assemble
      [ ( "main",
          [ ins (Instr.Jal "f"); ins (Instr.Jal "f"); ins Instr.Halt ] )
      ; ("f", callee_body)
      ]
  in
  let g = G.build p in
  (* Two call sites -> two copies of f's single block, sharing the same
     instruction range but with different contexts. *)
  let f = List.find (fun f -> f.Program.fn_name = "f") p.Program.functions in
  let f_start = f.Program.fn_start in
  let copies =
    Array.to_list g.G.nodes |> List.filter (fun nd -> nd.G.first = f_start)
  in
  Alcotest.(check int) "two copies of f" 2 (List.length copies);
  let contexts = List.map (fun nd -> nd.G.context) copies in
  Alcotest.(check bool) "distinct contexts" true
    (match contexts with [ a; b ] -> a <> b | _ -> false)

let test_recursion_rejected () =
  let p =
    assemble
      [ ("main", [ ins (Instr.Jal "f"); ins Instr.Halt ])
      ; ("f", [ ins (Instr.Jal "f"); ins (Instr.Jr Reg.ra) ])
      ]
  in
  match G.build p with
  | exception G.Build_error _ -> ()
  | _ -> Alcotest.fail "expected Build_error on recursion"

let test_jal_mid_function_rejected () =
  let p =
    assemble
      [ ("main", [ ins (Instr.Jal "inside"); ins Instr.Halt ])
      ; ("f", [ ins Instr.Nop; label "inside"; ins (Instr.Jr Reg.ra) ])
      ]
  in
  match G.build p with
  | exception G.Build_error _ -> ()
  | _ -> Alcotest.fail "expected Build_error on jal into function body"

let test_fall_off_end_rejected () =
  let p = assemble [ ("main", [ ins Instr.Nop ]) ] in
  match G.build p with
  | exception G.Build_error _ -> ()
  | _ -> Alcotest.fail "expected Build_error on fall-through at function end"

(* --- dominance ---------------------------------------------------------- *)

let test_dominance_diamond () =
  let p =
    assemble
      [ ( "main",
          [ ins (Instr.Beqz (Instr.Eq, Reg.t0, "else"))
          ; ins Instr.Nop
          ; ins (Instr.J "join")
          ; label "else"
          ; ins Instr.Nop
          ; label "join"
          ; ins Instr.Halt
          ] )
      ]
  in
  let g = G.build p in
  let dom = D.compute g in
  let join = List.hd g.G.exits in
  Alcotest.(check bool) "entry dom join" true (D.dominates dom g.G.entry join);
  Alcotest.(check bool) "join not dom entry" false (D.dominates dom join g.G.entry);
  (* Neither branch arm dominates the join. *)
  Array.iter
    (fun nd ->
      if nd.G.id <> g.G.entry && nd.G.id <> join then
        Alcotest.(check bool) "arm not dom join" false (D.dominates dom nd.G.id join))
    g.G.nodes;
  Alcotest.(check (option int)) "idom of join" (Some g.G.entry) (D.idom dom join)

(* --- loops -------------------------------------------------------------- *)

let test_simple_loop () =
  let p =
    assemble
      ~bounds:[ ("loop", 10) ]
      [ ( "main",
          [ ins (Instr.Li (Reg.t0, 10))
          ; label "loop"
          ; ins (Instr.Alui (Instr.Add, Reg.t0, Reg.t0, -1))
          ; ins (Instr.Beqz (Instr.Gtz, Reg.t0, "loop"))
          ; ins Instr.Halt
          ] )
      ]
  in
  let g = G.build p in
  let loops = L.detect g in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check int) "bound" 10 l.L.bound;
  Alcotest.(check int) "one back edge" 1 (List.length l.L.back_edges);
  Alcotest.(check int) "one entry edge" 1 (List.length l.L.entry_edges)

let test_missing_bound () =
  let p =
    assemble
      [ ( "main",
          [ label "loop"
          ; ins (Instr.Beqz (Instr.Eq, Reg.t0, "done"))
          ; ins (Instr.J "loop")
          ; label "done"
          ; ins Instr.Halt
          ] )
      ]
  in
  let g = G.build p in
  match L.detect g with
  | exception L.Loop_error _ -> ()
  | _ -> Alcotest.fail "expected Loop_error for missing bound"

let test_irreducible_rejected () =
  (* Two mutually-jumping blocks, each entered from outside: classic
     irreducible shape. *)
  let p =
    assemble
      [ ( "main",
          [ ins (Instr.Beqz (Instr.Eq, Reg.t0, "b"))
          ; label "a"
          ; ins (Instr.Beqz (Instr.Eq, Reg.t1, "exit"))
          ; ins (Instr.J "b")
          ; label "b"
          ; ins (Instr.Beqz (Instr.Eq, Reg.t2, "exit"))
          ; ins (Instr.J "a")
          ; label "exit"
          ; ins Instr.Halt
          ] )
      ]
  in
  let g = G.build p in
  match L.detect g with
  | exception L.Loop_error _ -> ()
  | _ -> Alcotest.fail "expected Loop_error for irreducible graph"

let test_nested_loops_minic () =
  let open Minic.Dsl in
  let p =
    compile_minic
      [ fn "main" []
          [ decl "s" (i 0)
          ; for_ "a" (i 0) (i 5) [ for_ "b" (i 0) (i 7) [ set "s" (v "s" +: i 1) ] ]
          ; ret (v "s")
          ]
      ]
  in
  let g = G.build p in
  let loops = L.detect g in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let bounds = List.sort compare (List.map (fun l -> l.L.bound) loops) in
  Alcotest.(check (list int)) "bounds" [ 5; 7 ] bounds;
  (* The inner loop body is contained in the outer one. *)
  let outer = List.find (fun l -> l.L.bound = 5) loops in
  let inner = List.find (fun l -> l.L.bound = 7) loops in
  List.iter
    (fun u -> Alcotest.(check bool) "inner in outer" true (List.mem u outer.L.body))
    inner.L.body

(* --- trace conformance --------------------------------------------------- *)

(* Every consecutive pair of block leaders in a real execution trace must
   correspond to an edge of the CFG (matched on instruction ranges). *)
let check_trace_conformance compiled =
  let program = compiled.Minic.Compile.program in
  let g = G.build program in
  let starts = Hashtbl.create 64 in
  Array.iter
    (fun nd -> Hashtbl.replace starts nd.G.first (nd :: Option.value ~default:[] (Hashtbl.find_opt starts nd.G.first)))
    g.G.nodes;
  let edge_exists u_first v_first =
    Array.exists
      (fun nd ->
        nd.G.first = u_first
        && List.exists (fun s -> (G.node g s).G.first = v_first) (G.successors g nd.G.id))
      g.G.nodes
  in
  let trace = ref [] in
  ignore (Oracle.Machine.run_compiled ~on_fetch:(fun a -> trace := a :: !trace) compiled);
  let indices = List.rev_map (Program.index_of_address program) !trace in
  (* Walk the trace, extracting block-leader transitions. *)
  let is_leader = Hashtbl.mem starts in
  let rec walk current = function
    | [] -> ()
    | idx :: rest ->
      if is_leader idx && idx <> current then begin
        (* The previous block must have an edge to this leader. *)
        if not (edge_exists current idx) then
          Alcotest.failf "no CFG edge for executed transition %d -> %d" current idx;
        walk idx rest
      end
      else walk current rest
  in
  (match indices with
  | [] -> Alcotest.fail "empty trace"
  | first :: rest ->
    Alcotest.(check int) "starts at entry" (G.node g g.G.entry).G.first first;
    walk first rest)

let test_trace_conformance_loop () =
  let open Minic.Dsl in
  check_trace_conformance
    (Minic.Compile.compile
       (program
          [ fn "main" []
              [ decl "s" (i 0)
              ; for_ "k" (i 0) (i 6)
                  [ if_ (v "k" %: i 2 ==: i 0) [ set "s" (v "s" +: v "k") ]
                      [ set "s" (v "s" -: i 1) ]
                  ]
              ; ret (v "s")
              ]
          ]))

let test_trace_conformance_calls () =
  let open Minic.Dsl in
  check_trace_conformance
    (Minic.Compile.compile
       (program
          [ fn "main" [] [ ret (call "f" [ i 3 ] +: call "f" [ i 4 ]) ]
          ; fn "f" [ "x" ] [ ret (call "g" [ v "x" ] *: i 2) ]
          ; fn "g" [ "x" ] [ ret (v "x" +: i 1) ]
          ]))

let () =
  Alcotest.run "cfg"
    [ ( "blocks",
        [ Alcotest.test_case "straightline" `Quick test_straightline
        ; Alcotest.test_case "diamond" `Quick test_diamond
        ; Alcotest.test_case "addresses" `Quick test_addresses
        ] )
    ; ( "interprocedural",
        [ Alcotest.test_case "call expansion" `Quick test_call_expansion
        ; Alcotest.test_case "recursion rejected" `Quick test_recursion_rejected
        ; Alcotest.test_case "jal mid-function" `Quick test_jal_mid_function_rejected
        ; Alcotest.test_case "fall off end" `Quick test_fall_off_end_rejected
        ] )
    ; ("dominance", [ Alcotest.test_case "diamond" `Quick test_dominance_diamond ])
    ; ( "loops",
        [ Alcotest.test_case "simple loop" `Quick test_simple_loop
        ; Alcotest.test_case "missing bound" `Quick test_missing_bound
        ; Alcotest.test_case "irreducible" `Quick test_irreducible_rejected
        ; Alcotest.test_case "nested (minic)" `Quick test_nested_loops_minic
        ] )
    ; ( "trace conformance",
        [ Alcotest.test_case "loop+if" `Quick test_trace_conformance_loop
        ; Alcotest.test_case "calls" `Quick test_trace_conformance_calls
        ] )
    ]
