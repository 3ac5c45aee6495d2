(* Coverage for the remaining small API surface: mechanism naming,
   model printers and Report_data edge cases. *)

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at k = k + nn <= nh && (String.sub haystack k nn = needle || at (k + 1)) in
  nn = 0 || at 0

let test_mechanism_names () =
  List.iter
    (fun m ->
      (* short_name round-trips through of_string. *)
      Alcotest.(check bool) "roundtrip" true
        (Pwcet.Mechanism.of_string (Pwcet.Mechanism.short_name m) = Some m))
    Pwcet.Mechanism.all;
  Alcotest.(check bool) "aliases" true
    (Pwcet.Mechanism.of_string "reliable-way" = Some Pwcet.Mechanism.Reliable_way);
  Alcotest.(check bool) "unknown" true (Pwcet.Mechanism.of_string "magic" = None);
  Alcotest.(check int) "three mechanisms" 3 (List.length Pwcet.Mechanism.all)

let test_lp_pp () =
  let lp = Ilp.Lp.create () in
  let x = Ilp.Lp.add_var lp ~name:"flow" () in
  Ilp.Lp.add_constr_int lp ~name:"cap" [ (x, 2) ] Ilp.Lp.Le 10;
  Ilp.Lp.set_objective_int lp [ (x, 3) ];
  let s = Format.asprintf "%a" Ilp.Lp.pp lp in
  Alcotest.(check bool) "objective" true (string_contains s "maximize");
  Alcotest.(check bool) "var name" true (string_contains s "flow");
  Alcotest.(check bool) "relation" true (string_contains s "<=");
  Alcotest.(check bool) "is integer" true (Ilp.Lp.is_integer lp x);
  Alcotest.(check string) "name" "flow" (Ilp.Lp.var_name lp x)

let test_fmm_pp () =
  let config = Cache.Config.make ~sets:2 ~ways:2 ~line_bytes:16 () in
  let fmm =
    Pwcet.Fmm.of_table ~config ~mechanism:Pwcet.Mechanism.No_protection
      [| [| 0; 3; 9 |]; [| 0; 0; 5 |] |]
  in
  let s = Format.asprintf "%a" Pwcet.Fmm.pp fmm in
  Alcotest.(check bool) "has rows" true (string_contains s "set  0");
  Alcotest.(check bool) "has entries" true (string_contains s "9");
  Alcotest.(check int) "max penalty" 14 (Pwcet.Fmm.max_penalty_misses fmm)

let test_fmm_of_table_validation () =
  let config = Cache.Config.make ~sets:2 ~ways:2 ~line_bytes:16 () in
  let bad table =
    match Pwcet.Fmm.of_table ~config ~mechanism:Pwcet.Mechanism.No_protection table with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad [| [| 0; 1; 2 |] |];               (* wrong row count *)
  bad [| [| 0; 1 |]; [| 0; 1 |] |];      (* wrong width *)
  bad [| [| 1; 1; 2 |]; [| 0; 0; 0 |] |];(* nonzero column 0 *)
  bad [| [| 0; 5; 2 |]; [| 0; 0; 0 |] |] (* non-monotone *)

let test_config_pp_and_program_pp () =
  let s = Format.asprintf "%a" Cache.Config.pp Cache.Config.paper_default in
  Alcotest.(check bool) "config pp" true (string_contains s "1024B 4-way");
  let entry = Option.get (Benchmarks.Registry.find "fibcall") in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let listing = Format.asprintf "%a" Isa.Program.pp compiled.Minic.Compile.program in
  Alcotest.(check bool) "has main label" true (string_contains listing "main:");
  Alcotest.(check bool) "has fib label" true (string_contains listing "fib:");
  Alcotest.(check bool) "has halt" true (string_contains listing "halt")

let test_report_min_gain_empty () =
  match Pwcet.Report_data.min_gain [] Pwcet.Report_data.gain_rw with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_registry_extras () =
  Alcotest.(check int) "4 extras" 4 (List.length Benchmarks.Registry.extras);
  (* Extras are findable but not in the paper's 25. *)
  Alcotest.(check bool) "st findable" true (Benchmarks.Registry.find "st" <> None);
  Alcotest.(check bool) "st not in names" false (List.mem "st" Benchmarks.Registry.names)

let () =
  Alcotest.run "misc"
    [ ( "api surface",
        [ Alcotest.test_case "mechanism names" `Quick test_mechanism_names
        ; Alcotest.test_case "lp pp" `Quick test_lp_pp
        ; Alcotest.test_case "fmm pp" `Quick test_fmm_pp
        ; Alcotest.test_case "fmm validation" `Quick test_fmm_of_table_validation
        ; Alcotest.test_case "config/program pp" `Quick test_config_pp_and_program_pp
        ; Alcotest.test_case "report edge cases" `Quick test_report_min_gain_empty
        ; Alcotest.test_case "registry extras" `Quick test_registry_extras
        ] )
    ]
