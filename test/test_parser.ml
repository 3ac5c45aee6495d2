(* Tests for the mini-C lexer and parser: constructs, precedence,
   disambiguation, error reporting, and end-to-end execution parity with
   the DSL. *)

let run_source ?args src =
  let prog = Minic.Parser.program_of_string src in
  let compiled = Minic.Compile.compile prog in
  (Oracle.Machine.run ?args ~memory_init:compiled.Minic.Compile.data compiled.Minic.Compile.program)
    .Oracle.Machine.return_value

let check_src name expected src = Alcotest.(check int) name expected (run_source src)

(* --- expressions ----------------------------------------------------------- *)

let test_precedence () =
  check_src "mul before add" 14 "int main() { return 2 + 3 * 4; }";
  check_src "parens" 20 "int main() { return (2 + 3) * 4; }";
  check_src "left assoc sub" 1 "int main() { return 10 - 5 - 4; }";
  check_src "cmp vs arith" 1 "int main() { return 2 + 3 < 3 * 2; }";
  check_src "shift vs add" 1 "int main() { return 1 << 1 + 1 == 4; }";
  (* C gotcha: & binds looser than ==; our grammar follows C. *)
  check_src "and vs eq" 1 "int main() { return 3 & 2 == 2; }";
  check_src "logical or short" 1 "int main() { return 1 || 1 / 0; }";
  check_src "unary chain" 2 "int main() { return - - 2; }";
  check_src "bitnot" (-1) "int main() { return ~0; }";
  check_src "lognot" 0 "int main() { return !5; }"

let test_literals () =
  check_src "hex" 255 "int main() { return 0xFF; }";
  check_src "hex mixed" 48879 "int main() { return 0xbeef; }";
  check_src "negative fold" (-7) "int main() { return -7; }"

let test_shifts () =
  check_src "shl" 40 "int main() { return 5 << 3; }";
  check_src "arith shr" (-1) "int main() { return -1 >> 4; }";
  check_src "logical shr" 0x0FFFFFFF "int main() { return -1 >>> 4; }"

(* --- statements ------------------------------------------------------------ *)

let test_control_flow () =
  check_src "if/else" 1 "int main() { if (2 > 1) { return 1; } else { return 2; } }";
  check_src "else if chain" 30
    "int main() { int x = 3;\n\
     if (x == 1) { return 10; } else if (x == 2) { return 20; }\n\
     else if (x == 3) { return 30; } else { return 40; } }";
  check_src "while with bound" 55
    "int main() { int s = 0; int n = 10;\n\
     while (n > 0) __bound(10) { s = s + n; n = n - 1; } return s; }";
  check_src "for auto bound" 45
    "int main() { int s = 0; for (k = 0; k < 10; k++) { s = s + k; } return s; }";
  check_src "for annotated" 10
    "int main() { int n = 5; int s = 0;\n\
     for (k = 0; k < n; k++) __bound(5) { s = s + k; } return s; }"

let test_arrays_and_globals () =
  check_src "global array init" 19
    "int a[4] = {3, 1, 4, 11};\nint main() { return a[0] + a[1] + a[2] + a[3]; }";
  check_src "short init pads zeros" 3
    "int a[4] = {1, 2};\nint main() { return a[0] + a[1] + a[2] + a[3]; }";
  check_src "uninitialised array" 0 "int a[4];\nint main() { return a[2]; }";
  check_src "global scalar" 18 "int g = 17;\nint main() { g = g + 1; return g; }";
  check_src "negative initialisers" (-5)
    "int a[2] = {-2, -3};\nint main() { return a[0] + a[1]; }";
  check_src "local array" 6
    "int main() { int a[3]; a[0] = 1; a[1] = 2; a[2] = 3; return a[0] + a[1] + a[2]; }"

let test_store_vs_expr_statement () =
  (* a[e] = v is a store; a[e]; alone is an expression statement. *)
  check_src "store then read" 9
    "int a[2];\nint main() { a[1] = 9; a[1]; return a[1]; }"

let test_functions () =
  check_src "call" 49 "int square(int x) { return x * x; }\nint main() { return square(7); }";
  check_src "multi arg" 1234
    "int weird(int a, int b, int c, int d) { return a * 1000 + b * 100 + c * 10 + d; }\n\
     int main() { return weird(1, 2, 3, 4); }";
  check_src "void-style call" 2
    "int g = 0;\nint bump() { g = g + 1; return 0; }\n\
     int main() { bump(); bump(); return g; }"

let test_comments () =
  check_src "line comments" 5
    "// leading\nint main() { // inline\n return 5; /* block */ }";
  check_src "block comment spans lines" 6 "int main() {\n/* a\nb\nc */ return 6; }"

(* --- error reporting --------------------------------------------------------- *)

let expect_parse_error src =
  match Minic.Parser.program_of_string src with
  | exception Minic.Parser.Error _ -> ()
  | _ -> Alcotest.failf "expected a parse error for: %s" src

let test_errors () =
  expect_parse_error "int main() { return 1 }";           (* missing ; *)
  expect_parse_error "int main() { while (1) { } }";      (* missing __bound *)
  expect_parse_error "int main() { for (k = 0; j < 5; k++) {} }"; (* index mismatch *)
  expect_parse_error "int main() { return 1; ";           (* unterminated block *)
  expect_parse_error "int main() { return $; }";          (* bad character *)
  expect_parse_error "int main() { /* never closed ";     (* unterminated comment *)
  expect_parse_error "int a[2] = {1, 2, 3};";             (* too many initialisers *)
  expect_parse_error "float main() { return 0; }"         (* unknown type *)

let test_error_position () =
  match Minic.Parser.program_of_string "int main() {\n  return @;\n}" with
  | exception Minic.Parser.Error msg ->
    Alcotest.(check bool) "mentions line 2" true
      (String.length msg >= 2 && String.sub msg 0 2 = "2:")
  | _ -> Alcotest.fail "expected error"

(* --- parity with the DSL -------------------------------------------------------- *)

let test_parity_with_dsl () =
  let source =
    "int data[15] = {1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 49, 53, 57};\n\
     int binary_search(int x) {\n\
    \  int fvalue = -1;\n\
    \  int low = 0;\n\
    \  int up = 14;\n\
    \  while (low <= up) __bound(4) {\n\
    \    int mid = (low + up) / 2;\n\
    \    if (data[mid] == x) { up = low - 1; fvalue = mid; }\n\
    \    else { if (data[mid] > x) { up = mid - 1; } else { low = mid + 1; } }\n\
    \  }\n\
    \  return fvalue;\n\
     }\n\
     int main() { return binary_search(29) + binary_search(30) * 100; }"
  in
  (* The bs benchmark is this exact program in DSL form. *)
  let dsl_entry = Option.get (Benchmarks.Registry.find "bs") in
  let dsl_result =
    (Oracle.Machine.run_compiled (Minic.Compile.compile dsl_entry.Benchmarks.Registry.program))
      .Oracle.Machine.return_value
  in
  Alcotest.(check int) "parsed = DSL" dsl_result (run_source source)

let test_program_of_file () =
  let path = Filename.temp_file "minic" ".c" in
  let oc = open_out path in
  output_string oc "int main() { return 77; }";
  close_out oc;
  let prog = Minic.Parser.program_of_file path in
  let compiled = Minic.Compile.compile prog in
  Sys.remove path;
  Alcotest.(check int) "from file" 77
    (Oracle.Machine.run_compiled compiled).Oracle.Machine.return_value

let test_shipped_programs () =
  (* The .c files in programs/ must parse, run, and produce the values
     an OCaml oracle computes. *)
  let dot_expected =
    let acc = ref 0 in
    for k = 0 to 15 do
      acc := !acc + ((k + 1) * 2 * (k + 1))
    done;
    !acc
  in
  let bubble_init =
    [| 71; 13; 55; 8; 99; 2; 67; 30; 12; 26; 18; 60; 40; 44; 5; 77; 21; 89; 34; 1; 95; 47; 62
     ; 3; 80; 16; 58; 24; 91; 7; 50; 37 |]
  in
  let bubble_expected =
    let sorted = Array.copy bubble_init in
    Array.sort compare sorted;
    let sum = ref 0 in
    Array.iteri (fun k x -> sum := !sum + (x * (k + 1))) sorted;
    !sum
  in
  let sqrt_expected =
    List.fold_left
      (fun acc x -> acc + int_of_float (sqrt (float_of_int x)))
      0
      [ 4; 100; 144; 1024; 7; 99; 65535; 31; 2000; 123456 ]
  in
  (* Works both under `dune runtest` (cwd = _build/default/test) and
     `dune exec` from the project root. *)
  let programs_dir =
    if Sys.file_exists "programs" then "programs" else Filename.concat ".." "programs"
  in
  List.iter
    (fun (file, expected) ->
      let prog = Minic.Parser.program_of_file (Filename.concat programs_dir file) in
      let compiled = Minic.Compile.compile prog in
      Alcotest.(check int) file expected
        (Oracle.Machine.run_compiled compiled).Oracle.Machine.return_value)
    [ ("dot_product.c", dot_expected)
    ; ("bubble.c", bubble_expected)
    ; ("fixpoint_sqrt.c", sqrt_expected)
    ]

(* End-to-end: a parsed program goes through the full pWCET pipeline. *)
let test_parsed_through_pipeline () =
  let prog =
    Minic.Parser.program_of_string
      "int main() { int s = 0; for (k = 0; k < 12; k++) { s = s + k; } return s; }"
  in
  let compiled = Minic.Compile.compile prog in
  let config = Cache.Config.paper_default in
  let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
  let est =
    Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:Pwcet.Mechanism.No_protection ()
  in
  let sim = Oracle.Lru.create config in
  let cycles =
    (Oracle.Machine.run_compiled ~fetch:(Oracle.Lru.latency_oracle sim) compiled)
      .Oracle.Machine.cycles
  in
  Alcotest.(check bool) "wcet sound" true (cycles <= Pwcet.Estimator.fault_free_wcet task);
  Alcotest.(check bool) "pwcet above wcet" true
    (Pwcet.Estimator.pwcet est ~target:1e-15 >= Pwcet.Estimator.fault_free_wcet task)

let () =
  Alcotest.run "parser"
    [ ( "expressions",
        [ Alcotest.test_case "precedence" `Quick test_precedence
        ; Alcotest.test_case "literals" `Quick test_literals
        ; Alcotest.test_case "shifts" `Quick test_shifts
        ] )
    ; ( "statements",
        [ Alcotest.test_case "control flow" `Quick test_control_flow
        ; Alcotest.test_case "arrays and globals" `Quick test_arrays_and_globals
        ; Alcotest.test_case "store vs expr stmt" `Quick test_store_vs_expr_statement
        ; Alcotest.test_case "functions" `Quick test_functions
        ; Alcotest.test_case "comments" `Quick test_comments
        ] )
    ; ( "errors",
        [ Alcotest.test_case "rejects" `Quick test_errors
        ; Alcotest.test_case "positions" `Quick test_error_position
        ] )
    ; ( "integration",
        [ Alcotest.test_case "parity with DSL" `Quick test_parity_with_dsl
        ; Alcotest.test_case "from file" `Quick test_program_of_file
        ; Alcotest.test_case "shipped programs" `Quick test_shipped_programs
        ; Alcotest.test_case "full pipeline" `Quick test_parsed_through_pipeline
        ] )
    ]
