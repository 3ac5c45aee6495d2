(* Differential testing of the mini-C compiler: random programs must
   produce identical results through [Compile] + [Oracle.Machine] and
   through the independent AST interpreter [Oracle.Interp]. The generator
   lives in [Minic_gen]. *)

(* --- the differential property -------------------------------------------- *)

let machine_result program =
  let compiled = Minic.Compile.compile program in
  let r = Oracle.Machine.run_compiled ~max_steps:5_000_000 compiled in
  match r.Oracle.Machine.status with
  | Oracle.Machine.Halted -> r.Oracle.Machine.return_value
  | Oracle.Machine.Out_of_fuel -> failwith "machine out of fuel"

let differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"compiled = interpreted"
       ~print:(fun p -> Format.asprintf "%a" Minic.Ast.pp_program p)
       Minic_gen.gen_program (fun program ->
         match (machine_result program, Oracle.Interp.run program) with
         | a, b -> a = b
         | exception Minic.Typecheck.Error _ ->
           (* The generator occasionally shadows a name; skip. *)
           QCheck2.assume_fail ()
         | exception Failure _ ->
           (* Pathological shrunk instance exceeded the step budget. *)
           QCheck2.assume_fail ()))

(* The 26 hand-written benchmarks double as fixed differential cases. *)
let test_benchmarks_agree () =
  List.iter
    (fun (e : Benchmarks.Registry.entry) ->
      let machine = machine_result e.Benchmarks.Registry.program in
      let interp = Oracle.Interp.run ~fuel:50_000_000 e.Benchmarks.Registry.program in
      Alcotest.(check int) e.Benchmarks.Registry.name machine interp)
    (Benchmarks.Registry.all @ Benchmarks.Registry.extras)

let () =
  Alcotest.run "differential"
    [ ( "compiler vs interpreter",
        [ differential; Alcotest.test_case "benchmark suite" `Quick test_benchmarks_agree ] )
    ]
