(* Tests for the mini-C front end: validation, compilation and end-to-end
   execution on the interpreter. Each execution test checks the value a
   real C compiler/机 would produce. *)

open Minic
open Minic.Dsl

let run_main ?(globals = []) body =
  let p = program ~globals [ fn "main" [] body ] in
  let compiled = Compile.compile p in
  (Oracle.Machine.run_compiled compiled).Oracle.Machine.return_value

let run_program p =
  let compiled = Compile.compile p in
  (Oracle.Machine.run_compiled compiled).Oracle.Machine.return_value

let check_main ?globals name expected body =
  Alcotest.(check int) name expected (run_main ?globals body)

(* --- expression evaluation -------------------------------------------- *)

let test_constants () = check_main "constant" 42 [ ret (i 42) ]

let test_arith () =
  check_main "arith" 17 [ ret ((i 3 *: i 5) +: (i 10 /: i 5)) ];
  check_main "sub/mod" 1 [ ret ((i 10 -: i 3) %: i 2) ];
  check_main "neg" (-7) [ ret (neg (i 7)) ]

let test_bitwise () =
  check_main "and/or/xor" 0b1110 [ ret ((i 0b1100 |: i 0b0010) ^: (i 0b1111 &: i 0b0000)) ];
  check_main "shifts" 40 [ ret ((i 5 <<: i 3) >>>: i 0) ];
  check_main "lshr" 0x0FFFFFFF [ ret (i (-1) >>: i 4) ];
  check_main "ashr" (-1) [ ret (i (-1) >>>: i 4) ];
  check_main "bitnot" (-43) [ ret (bitnot (i 42)) ]

let test_comparisons () =
  check_main "lt" 1 [ ret (i 2 <: i 3) ];
  check_main "le" 1 [ ret (i 3 <=: i 3) ];
  check_main "gt" 0 [ ret (i 2 >: i 3) ];
  check_main "ge" 0 [ ret (i 2 >=: i 3) ];
  check_main "eq" 1 [ ret (i 5 ==: i 5) ];
  check_main "ne" 0 [ ret (i 5 <>: i 5) ];
  check_main "negatives" 1 [ ret (i (-5) <: i 3) ]

let test_logical () =
  check_main "and tt" 1 [ ret (i 2 &&: i 3) ];
  check_main "and tf" 0 [ ret (i 2 &&: i 0) ];
  check_main "or ff" 0 [ ret (i 0 ||: i 0) ];
  check_main "or ft" 1 [ ret (i 0 ||: i 9) ];
  check_main "lognot" 1 [ ret (lognot (i 0)) ];
  (* Short-circuit: the second operand would trap (div by zero). *)
  check_main "short-circuit and" 0 [ ret (i 0 &&: (i 1 /: i 0)) ];
  check_main "short-circuit or" 1 [ ret (i 1 ||: (i 1 /: i 0)) ]

let test_deep_expression_spill () =
  (* Build a comb deep enough to exhaust the 18 temporaries: a right-
     leaning chain of additions of products forces many live values. *)
  let rec build n = if n = 0 then i 1 else (i 1 +: build (n - 1)) in
  check_main "deep right chain" 26 [ ret (build 25) ];
  let rec left n = if n = 0 then i 1 else left (n - 1) +: i 1 in
  check_main "deep left chain" 26 [ ret (left 25) ];
  (* Balanced tree of depth 6: 64 leaves of value 1. *)
  let rec tree d = if d = 0 then i 1 else tree (d - 1) +: tree (d - 1) in
  check_main "balanced tree" 64 [ ret (tree 6) ]

(* --- statements -------------------------------------------------------- *)

let test_locals () =
  check_main "decl/assign" 30
    [ decl "x" (i 10); decl "y" (i 20); set "x" (v "x" +: v "y"); ret (v "x") ]

let test_if () =
  check_main "then" 1 [ if_ (i 1) [ ret (i 1) ] [ ret (i 2) ] ];
  check_main "else" 2 [ if_ (i 0) [ ret (i 1) ] [ ret (i 2) ] ];
  check_main "when false" 5 [ decl "x" (i 5); when_ (i 0) [ set "x" (i 9) ]; ret (v "x") ]

let test_while () =
  check_main "sum 1..10" 55
    [ decl "s" (i 0)
    ; decl "n" (i 10)
    ; while_ ~bound:10
        (v "n" >: i 0)
        [ set "s" (v "s" +: v "n"); set "n" (v "n" -: i 1) ]
    ; ret (v "s")
    ]

let test_for () =
  check_main "sum 0..9" 45
    [ decl "s" (i 0); for_ "k" (i 0) (i 10) [ set "s" (v "s" +: v "k") ]; ret (v "s") ]

let test_nested_loops () =
  check_main "multiplication table" 2025
    [ decl "s" (i 0)
    ; for_ "a" (i 1) (i 10) [ for_ "b" (i 1) (i 10) [ set "s" (v "s" +: (v "a" *: v "b")) ] ]
    ; ret (v "s")
    ]

let test_local_arrays () =
  check_main "local array" 285
    [ decl_arr "sq" 10
    ; for_ "k" (i 0) (i 10) [ store "sq" (v "k") (v "k" *: v "k") ]
    ; decl "s" (i 0)
    ; for_ "k" (i 0) (i 10) [ set "s" (v "s" +: idx "sq" (v "k")) ]
    ; ret (v "s")
    ]

let test_global_arrays () =
  check_main "global array sum"
    ~globals:[ array "data" [| 3; 1; 4; 1; 5; 9; 2; 6 |] ]
    31
    [ decl "s" (i 0); for_ "k" (i 0) (i 8) [ set "s" (v "s" +: idx "data" (v "k")) ]; ret (v "s") ]

let test_global_scalar () =
  check_main "global scalar" ~globals:[ scalar "g" 17 ] 18
    [ set "g" (v "g" +: i 1); ret (v "g") ]

let test_shadowing () =
  check_main "inner shadows outer" 5
    [ decl "x" (i 5)
    ; if_ (i 1) [ decl "x" (i 99); set "x" (i 100) ] []
    ; ret (v "x")
    ]

(* --- functions --------------------------------------------------------- *)

let test_function_call () =
  let p =
    program
      [ fn "main" [] [ ret (call "square" [ i 7 ]) ]
      ; fn "square" [ "x" ] [ ret (v "x" *: v "x") ]
      ]
  in
  Alcotest.(check int) "square" 49 (run_program p)

let test_four_args () =
  let p =
    program
      [ fn "main" [] [ ret (call "weird" [ i 1; i 2; i 3; i 4 ]) ]
      ; fn "weird" [ "a"; "b"; "c"; "d" ]
          [ ret ((v "a" *: i 1000) +: (v "b" *: i 100) +: (v "c" *: i 10) +: v "d") ]
      ]
  in
  Alcotest.(check int) "arg order" 1234 (run_program p)

let test_call_preserves_temporaries () =
  (* The call happens while the left operand of + is live in a temp. *)
  let p =
    program
      [ fn "main" [] [ decl "x" (i 100); ret (v "x" +: call "clobber" [] +: v "x") ]
      ; fn "clobber" []
          [ decl "a" (i 1); decl "b" (i 2); decl "c" (i 3)
          ; ret (v "a" +: v "b" +: v "c" +: i 994)
          ]
      ]
  in
  Alcotest.(check int) "live across call" 1200 (run_program p)

let test_nested_calls () =
  let p =
    program
      [ fn "main" [] [ ret (call "add" [ call "add" [ i 1; i 2 ]; call "add" [ i 3; i 4 ] ]) ]
      ; fn "add" [ "a"; "b" ] [ ret (v "a" +: v "b") ]
      ]
  in
  Alcotest.(check int) "nested" 10 (run_program p)

let test_call_chain () =
  let p =
    program
      [ fn "main" [] [ ret (call "f" [ i 5 ]) ]
      ; fn "f" [ "x" ] [ ret (call "g" [ v "x" +: i 1 ] *: i 2) ]
      ; fn "g" [ "x" ] [ ret (call "h" [ v "x" ] +: i 1) ]
      ; fn "h" [ "x" ] [ ret (v "x" *: v "x") ]
      ]
  in
  Alcotest.(check int) "chain" 74 (run_program p)

let test_void_return () =
  let p =
    program ~globals:[ scalar "g" 0 ]
      [ fn "main" [] [ expr (call "bump" []); expr (call "bump" []); ret (v "g") ]
      ; fn "bump" [] [ set "g" (v "g" +: i 1); ret0 ]
      ]
  in
  Alcotest.(check int) "void calls" 2 (run_program p)

(* --- validation errors ------------------------------------------------- *)

let expect_invalid name p =
  match Compile.compile p with
  | exception Typecheck.Error _ -> ()
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected a compile-time error" name

let test_errors () =
  expect_invalid "no main" (program [ fn "f" [] [ ret (i 1) ] ]);
  expect_invalid "unbound var" (program [ fn "main" [] [ ret (v "nope") ] ]);
  expect_invalid "unbound fn" (program [ fn "main" [] [ ret (call "nope" []) ] ]);
  expect_invalid "arity" (program [ fn "main" [] [ ret (call "f" [ i 1 ]) ]; fn "f" [] [ ret0 ] ]);
  expect_invalid "recursion"
    (program [ fn "main" [] [ ret (call "f" [] ) ]; fn "f" [] [ ret (call "f" []) ] ]);
  expect_invalid "mutual recursion"
    (program
       [ fn "main" [] [ ret (call "f" []) ]
       ; fn "f" [] [ ret (call "g" []) ]
       ; fn "g" [] [ ret (call "f" []) ]
       ]);
  expect_invalid "array as scalar"
    (program ~globals:[ array "a" [| 1 |] ] [ fn "main" [] [ ret (v "a") ] ]);
  expect_invalid "scalar indexed"
    (program ~globals:[ scalar "x" 1 ] [ fn "main" [] [ ret (idx "x" (i 0)) ] ]);
  expect_invalid "dup decl" (program [ fn "main" [] [ decl "x" (i 1); decl "x" (i 2) ] ]);
  expect_invalid "5 params"
    (program
       [ fn "main" [] [ ret (i 0) ]; fn "f" [ "a"; "b"; "c"; "d"; "e" ] [ ret (i 0) ] ]);
  expect_invalid "unbounded while with non-const"
    (program
       [ fn "main" [] [ decl "n" (i 3); for_ "k" (i 0) (v "n") [ expr (i 0) ]; ret (i 0) ] ])

let test_bound_annotation_ok () =
  check_main "annotated for over variable range" 10
    [ decl "n" (i 5)
    ; decl "s" (i 0)
    ; for_b "k" (i 0) (v "n") ~bound:5 [ set "s" (v "s" +: v "k") ]
    ; ret (v "s")
    ]

(* --- loop bound metadata ----------------------------------------------- *)

let test_bounds_recorded () =
  let p =
    program
      [ fn "main" []
          [ decl "s" (i 0)
          ; for_ "a" (i 0) (i 7) [ set "s" (v "s" +: i 1) ]
          ; while_ ~bound:3 (v "s" >: i 100) [ set "s" (v "s" -: i 1) ]
          ; ret (v "s")
          ]
      ]
  in
  let compiled = Compile.compile p in
  let bounds = List.map snd compiled.Compile.program.Isa.Program.loop_bounds in
  Alcotest.(check (list int)) "bounds recorded" [ 3; 7 ] (List.sort compare bounds)

(* --- pretty printing --------------------------------------------------- *)

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at k = k + nn <= nh && (String.sub haystack k nn = needle || at (k + 1)) in
  nn = 0 || at 0

let test_pp_smoke () =
  let p =
    program ~globals:[ scalar "g" 1; array "a" [| 1; 2 |] ]
      [ fn "main" []
          [ decl "x" (i 1)
          ; for_ "k" (i 0) (i 4) [ store "a" (v "k" %: i 2) (v "x") ]
          ; ret (v "x" &&: (v "g" ||: i 0))
          ]
      ]
  in
  let s = Format.asprintf "%a" Ast.pp_program p in
  Alcotest.(check bool) "mentions for" true (string_contains s "for (k = 0; k < 4; k++)");
  Alcotest.(check bool) "mentions global" true (string_contains s "int g = 1;")

let () =
  Alcotest.run "minic"
    [ ( "expressions",
        [ Alcotest.test_case "constants" `Quick test_constants
        ; Alcotest.test_case "arith" `Quick test_arith
        ; Alcotest.test_case "bitwise" `Quick test_bitwise
        ; Alcotest.test_case "comparisons" `Quick test_comparisons
        ; Alcotest.test_case "logical" `Quick test_logical
        ; Alcotest.test_case "spilling" `Quick test_deep_expression_spill
        ] )
    ; ( "statements",
        [ Alcotest.test_case "locals" `Quick test_locals
        ; Alcotest.test_case "if" `Quick test_if
        ; Alcotest.test_case "while" `Quick test_while
        ; Alcotest.test_case "for" `Quick test_for
        ; Alcotest.test_case "nested loops" `Quick test_nested_loops
        ; Alcotest.test_case "local arrays" `Quick test_local_arrays
        ; Alcotest.test_case "global arrays" `Quick test_global_arrays
        ; Alcotest.test_case "global scalar" `Quick test_global_scalar
        ; Alcotest.test_case "shadowing" `Quick test_shadowing
        ] )
    ; ( "functions",
        [ Alcotest.test_case "call" `Quick test_function_call
        ; Alcotest.test_case "four args" `Quick test_four_args
        ; Alcotest.test_case "live across call" `Quick test_call_preserves_temporaries
        ; Alcotest.test_case "nested calls" `Quick test_nested_calls
        ; Alcotest.test_case "call chain" `Quick test_call_chain
        ; Alcotest.test_case "void return" `Quick test_void_return
        ] )
    ; ( "validation",
        [ Alcotest.test_case "errors" `Quick test_errors
        ; Alcotest.test_case "bound annotation" `Quick test_bound_annotation_ok
        ; Alcotest.test_case "bounds recorded" `Quick test_bounds_recorded
        ] )
    ; ("printing", [ Alcotest.test_case "pp smoke" `Quick test_pp_smoke ])
    ]
