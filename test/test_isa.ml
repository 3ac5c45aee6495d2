(* Tests for the ISA layer: assembly, address mapping and the
   cycle-counting interpreter. *)

open Isa
module Machine = Oracle.Machine

let ins i = Program.Ins i
let label l = Program.Label l

let assemble ?bounds items =
  Program.assemble
    { src_functions = [ ("main", items) ]; src_bounds = Option.value bounds ~default:[] }

(* --- assembly --------------------------------------------------------- *)

let test_assemble_addresses () =
  let p = assemble [ ins Instr.Nop; ins Instr.Nop; ins Instr.Halt ] in
  Alcotest.(check int) "count" 3 (Program.instruction_count p);
  Alcotest.(check int) "addr 0" 0x400000 (Program.address_of_index p 0);
  Alcotest.(check int) "addr 2" 0x400008 (Program.address_of_index p 2);
  Alcotest.(check int) "roundtrip" 1 (Program.index_of_address p 0x400004)

let test_assemble_labels () =
  let p =
    assemble
      [ ins (Instr.J "end"); label "mid"; ins Instr.Nop; label "end"; ins Instr.Halt ]
  in
  (match Program.instruction p 0 with
  | Instr.J 2 -> ()
  | _ -> Alcotest.fail "jump not resolved to index 2");
  Alcotest.(check int) "count" 3 (Program.instruction_count p)

let test_assemble_errors () =
  let expect_error items =
    match assemble items with
    | exception Program.Assembly_error _ -> ()
    | _ -> Alcotest.fail "expected Assembly_error"
  in
  expect_error [ ins (Instr.J "nowhere"); ins Instr.Halt ];
  expect_error [ label "a"; label "a"; ins Instr.Halt ];
  expect_error []

let test_assemble_bounds () =
  let p =
    Program.assemble
      {
        src_functions = [ ("main", [ label "loop"; ins Instr.Nop; ins Instr.Halt ]) ];
        src_bounds = [ ("loop", 10) ];
      }
  in
  Alcotest.(check (list (pair int int))) "bounds" [ (0, 10) ] p.Program.loop_bounds

let test_misaligned_address () =
  let p = assemble [ ins Instr.Halt ] in
  Alcotest.check_raises "misaligned" (Invalid_argument "Program.index_of_address: misaligned")
    (fun () -> ignore (Program.index_of_address p 0x400002))

(* --- machine ---------------------------------------------------------- *)

let run ?args ?fetch items = Machine.run ?args ?fetch (assemble items)

let test_simple_arith () =
  let r =
    run
      [ ins (Instr.Li (Reg.t0, 20))
      ; ins (Instr.Li (Reg.t1, 22))
      ; ins (Instr.Alu (Instr.Add, Reg.v0, Reg.t0, Reg.t1))
      ; ins Instr.Halt
      ]
  in
  Alcotest.(check int) "42" 42 r.Machine.return_value;
  Alcotest.(check int) "instructions" 4 r.Machine.instructions;
  Alcotest.(check int) "cycles (1 per fetch)" 4 r.Machine.cycles

let test_zero_register_immutable () =
  let r =
    run
      [ ins (Instr.Li (Reg.zero, 99))
      ; ins (Instr.Alui (Instr.Add, Reg.v0, Reg.zero, 7))
      ; ins Instr.Halt
      ]
  in
  Alcotest.(check int) "$zero stays 0" 7 r.Machine.return_value

let test_branch_loop () =
  (* v0 = sum 1..5 *)
  let r =
    run
      [ ins (Instr.Li (Reg.t0, 5))
      ; ins (Instr.Li (Reg.v0, 0))
      ; label "loop"
      ; ins (Instr.Alu (Instr.Add, Reg.v0, Reg.v0, Reg.t0))
      ; ins (Instr.Alui (Instr.Add, Reg.t0, Reg.t0, -1))
      ; ins (Instr.Beqz (Instr.Gtz, Reg.t0, "loop"))
      ; ins Instr.Halt
      ]
  in
  Alcotest.(check int) "sum" 15 r.Machine.return_value

let test_memory_ops () =
  let r =
    run
      [ ins (Instr.Li (Reg.t0, 0x1000_0000))
      ; ins (Instr.Li (Reg.t1, 1234))
      ; ins (Instr.Sw (Reg.t1, 8, Reg.t0))
      ; ins (Instr.Lw (Reg.v0, 8, Reg.t0))
      ; ins Instr.Halt
      ]
  in
  Alcotest.(check int) "store/load" 1234 r.Machine.return_value

let test_byte_ops () =
  let r =
    run
      [ ins (Instr.Li (Reg.t0, 0x1000_0000))
      ; ins (Instr.Li (Reg.t1, 0x7F))
      ; ins (Instr.Sb (Reg.t1, 1, Reg.t0))
      ; ins (Instr.Li (Reg.t1, -2))
      ; ins (Instr.Sb (Reg.t1, 2, Reg.t0))
      ; ins (Instr.Lb (Reg.t2, 1, Reg.t0))
      ; ins (Instr.Lb (Reg.t3, 2, Reg.t0))
      ; ins (Instr.Alu (Instr.Add, Reg.v0, Reg.t2, Reg.t3))
      ; ins Instr.Halt
      ]
  in
  (* 0x7F + (-2) = 125 *)
  Alcotest.(check int) "bytes with sign extension" 125 r.Machine.return_value

let test_call_return () =
  let p =
    Program.assemble
      {
        src_functions =
          [ ( "main",
              [ ins (Instr.Li (Reg.a0, 4))
              ; ins (Instr.Jal "double")
              ; ins Instr.Halt
              ] )
          ; ( "double",
              [ ins (Instr.Alu (Instr.Add, Reg.v0, Reg.a0, Reg.a0)); ins (Instr.Jr Reg.ra) ] )
          ];
        src_bounds = [];
      }
  in
  let r = Machine.run p in
  Alcotest.(check int) "jal/jr" 8 r.Machine.return_value

let test_wrap32 () =
  let r =
    run
      [ ins (Instr.Li (Reg.t0, 0x7FFF_FFFF))
      ; ins (Instr.Alui (Instr.Add, Reg.v0, Reg.t0, 1))
      ; ins Instr.Halt
      ]
  in
  Alcotest.(check int) "overflow wraps" (-0x8000_0000) r.Machine.return_value

let test_unsigned_ops () =
  let r =
    run
      [ ins (Instr.Li (Reg.t0, -1)) (* 0xFFFFFFFF unsigned *)
      ; ins (Instr.Li (Reg.t1, 1))
      ; ins (Instr.Alu (Instr.Sltu, Reg.t2, Reg.t0, Reg.t1)) (* big < 1 ? no *)
      ; ins (Instr.Alu (Instr.Slt, Reg.t3, Reg.t0, Reg.t1)) (* -1 < 1 ? yes *)
      ; ins (Instr.Shift (Instr.Srlv, Reg.t4, Reg.t0, 28)) (* logical: 0xF *)
      ; ins (Instr.Alu (Instr.Add, Reg.v0, Reg.t2, Reg.t3))
      ; ins (Instr.Alu (Instr.Add, Reg.v0, Reg.v0, Reg.t4))
      ; ins Instr.Halt
      ]
  in
  Alcotest.(check int) "sltu/slt/srl" 16 r.Machine.return_value

let test_division_trap () =
  Alcotest.check_raises "div by zero" (Machine.Trap "division by zero") (fun () ->
      ignore
        (run
           [ ins (Instr.Li (Reg.t0, 1))
           ; ins (Instr.Alu (Instr.Div, Reg.v0, Reg.t0, Reg.zero))
           ; ins Instr.Halt
           ]))

let test_out_of_fuel () =
  let r = Machine.run ~max_steps:10 (assemble [ label "spin"; ins (Instr.J "spin") ]) in
  (match r.Machine.status with
  | Machine.Out_of_fuel -> ()
  | Machine.Halted -> Alcotest.fail "expected Out_of_fuel");
  Alcotest.(check int) "steps" 10 r.Machine.instructions

let test_fetch_oracle_and_trace () =
  let p =
    assemble [ ins Instr.Nop; ins (Instr.J "end"); ins Instr.Nop; label "end"; ins Instr.Halt ]
  in
  let trace = Machine.run_trace p in
  Alcotest.(check (list int)) "trace skips untaken path" [ 0x400000; 0x400004; 0x40000C ] trace;
  (* A custom oracle charging 5 per fetch. *)
  let r = Machine.run ~fetch:(fun _ -> 5) p in
  Alcotest.(check int) "cycles via oracle" 15 r.Machine.cycles

let test_memory_init () =
  let p =
    assemble
      [ ins (Instr.Li (Reg.t0, 0x1000_0000)); ins (Instr.Lw (Reg.v0, 4, Reg.t0)); ins Instr.Halt ]
  in
  let r = Machine.run ~memory_init:[ (0x1000_0004, 77) ] p in
  Alcotest.(check int) "preloaded" 77 r.Machine.return_value

let () =
  Alcotest.run "isa"
    [ ( "program",
        [ Alcotest.test_case "addresses" `Quick test_assemble_addresses
        ; Alcotest.test_case "labels" `Quick test_assemble_labels
        ; Alcotest.test_case "errors" `Quick test_assemble_errors
        ; Alcotest.test_case "loop bounds" `Quick test_assemble_bounds
        ; Alcotest.test_case "misaligned" `Quick test_misaligned_address
        ] )
    ; ( "machine",
        [ Alcotest.test_case "arith" `Quick test_simple_arith
        ; Alcotest.test_case "$zero" `Quick test_zero_register_immutable
        ; Alcotest.test_case "branch loop" `Quick test_branch_loop
        ; Alcotest.test_case "memory" `Quick test_memory_ops
        ; Alcotest.test_case "bytes" `Quick test_byte_ops
        ; Alcotest.test_case "call/return" `Quick test_call_return
        ; Alcotest.test_case "32-bit wrap" `Quick test_wrap32
        ; Alcotest.test_case "unsigned ops" `Quick test_unsigned_ops
        ; Alcotest.test_case "div trap" `Quick test_division_trap
        ; Alcotest.test_case "out of fuel" `Quick test_out_of_fuel
        ; Alcotest.test_case "oracle + trace" `Quick test_fetch_oracle_and_trace
        ; Alcotest.test_case "memory init" `Quick test_memory_init
        ] )
    ]
