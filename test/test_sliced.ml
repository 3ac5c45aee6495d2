(* Differential tests for the set-sliced FMM engine: the production
   engine (one condensed Must/May fixpoint per set, every fault count a
   threshold on its ages) must be observationally identical to the
   naive oracles (whole-CFG re-analysis per (set, fault count),
   [Oracle.Chmc] and [Oracle.Fmm]) — same per-reference classifications
   at every associativity and bit-identical FMM tables, for every
   mechanism and both delta engines. *)

module Chmc = Cache_analysis.Chmc
module Context = Cache_analysis.Context

let classification =
  Alcotest.testable Chmc.pp_classification (fun a b -> a = b)

let table = Alcotest.(array (array int))

let graph_of name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let graph = Cfg.Graph.build compiled.Minic.Compile.program in
  (graph, Cfg.Loop.detect graph)

(* Each mechanism's table from a one-mechanism [Fmm.compute_multi] against the
   oracle's. *)
let oracle_pairs ~graph ~loops ~config ~engine ~mechanisms =
  List.map
    (fun (mechanism, expected) ->
      ( mechanism,
        expected,
        Pwcet.Fmm.table
          (snd
             (List.hd
                (Pwcet.Fmm.compute_multi ~graph ~loops ~config ~mechanisms:[ mechanism ]
                   ~engine ()))) ))
    (Oracle.Fmm.tables ~graph ~loops ~config ~mechanisms ~engine ())

let check_tables ~graph ~loops ~config ~engine label =
  List.iter
    (fun (mechanism, expected, computed) ->
      Alcotest.check table
        (Printf.sprintf "%s/%s" label (Pwcet.Mechanism.short_name mechanism))
        expected computed)
    (oracle_pairs ~graph ~loops ~config ~engine ~mechanisms:Pwcet.Mechanism.all)

(* Full FMM tables, three mechanisms, several geometries, path engine. *)
let test_tables_path () =
  List.iter
    (fun name ->
      let graph, loops = graph_of name in
      List.iter
        (fun (sets, ways) ->
          let config = Cache.Config.make ~sets ~ways ~line_bytes:16 () in
          check_tables ~graph ~loops ~config ~engine:`Path
            (Printf.sprintf "%s %dx%d" name sets ways))
        [ (16, 4); (8, 2); (4, 8) ])
    [ "fibcall"; "bs"; "crc"; "cnt" ]

(* Same with the ILP delta engine (small programs only — it is slow). *)
let test_tables_ilp () =
  List.iter
    (fun name ->
      let graph, loops = graph_of name in
      let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
      check_tables ~graph ~loops ~config ~engine:`Ilp (name ^ " ilp"))
    [ "fibcall"; "bs" ]

(* Per-(set, fault count) classification identity: thresholding the
   baseline's full-associativity ages ([Chmc.degraded]) must classify
   every reference exactly as the whole-CFG degraded analysis does, at
   every associativity from the dead set to the fault-free one. *)
let test_slice_classifications () =
  List.iter
    (fun name ->
      let graph, loops = graph_of name in
      let config = Cache.Config.make ~sets:16 ~ways:4 ~line_bytes:16 () in
      let ways = config.Cache.Config.ways in
      let ctx = Context.make ~graph ~loops ~config in
      let baseline = Chmc.analyze ~ctx ~graph ~loops ~config () in
      for set = 0 to config.Cache.Config.sets - 1 do
        if Array.length ctx.Context.touching.(set) > 0 then
          for assoc = 0 to ways do
            let degraded = Chmc.degraded baseline ~set ~assoc in
            let full =
              Oracle.Chmc.analyze ~graph ~loops ~config
                ~assoc:(fun s -> if s = set then assoc else ways)
                ~only_sets:[ set ] ()
            in
            Chmc.fold_refs
              (fun ~node ~offset _ () ->
                Alcotest.check classification
                  (Printf.sprintf "%s set %d assoc %d node %d.%d" name set assoc node offset)
                  (Oracle.Chmc.classification full ~node ~offset)
                  (degraded ~node ~offset))
              baseline ()
          done
      done)
    [ "fibcall"; "bs"; "crc" ]

(* The production CHMC and the whole-CFG oracle at the same per-set
   associativities: the references where they differ, as readable
   labels (empty when they agree). *)
let mismatches ~graph ~loops ~config ~assoc =
  let computed = Chmc.analyze ~graph ~loops ~config ~assoc () in
  let expected = Oracle.Chmc.analyze ~graph ~loops ~config ~assoc () in
  Chmc.fold_refs
    (fun ~node ~offset cls acc ->
      let want = Oracle.Chmc.classification expected ~node ~offset in
      if cls = want then acc
      else
        Format.asprintf "node %d.%d (set %d): %a, oracle %a" node offset
          (Chmc.cache_set computed ~node ~offset)
          Chmc.pp_classification cls Chmc.pp_classification want
        :: acc)
    computed []

let classification_geometries = [ (4, 2); (8, 2); (16, 4); (32, 4); (16, 8); (8, 16) ]

(* Random programs, geometries and per-set associativity vectors (each
   entry in 0..W, missing entries at W). *)
let random_classifications =
  let gen =
    QCheck2.Gen.(
      triple Minic_gen.gen_program
        (oneofl classification_geometries)
        (list_size (int_range 0 32) (int_range 0 16)))
  in
  let print (program, (sets, ways), vector) =
    Format.asprintf "%dx%d assoc [%s]@.%a" sets ways
      (String.concat "; " (List.map string_of_int vector))
      Minic.Ast.pp_program program
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"random programs and assoc vectors" ~print gen
       (fun (program, (sets, ways), vector) ->
         match Minic.Compile.compile program with
         | exception Minic.Typecheck.Error _ -> QCheck2.assume_fail ()
         | compiled ->
           let graph = Cfg.Graph.build compiled.Minic.Compile.program in
           let loops = Cfg.Loop.detect graph in
           let config = Cache.Config.make ~sets ~ways ~line_bytes:16 () in
           let vector = Array.of_list vector in
           let assoc s =
             if s < Array.length vector then vector.(s) mod (ways + 1) else ways
           in
           match mismatches ~graph ~loops ~config ~assoc with
           | [] -> true
           | diffs -> QCheck2.Test.fail_report (String.concat "\n" diffs)))

(* Every registry program (and the extras) at six geometries, every
   set at every associativity 0..W. *)
let test_registry_classifications () =
  List.iter
    (fun (entry : Benchmarks.Registry.entry) ->
      let graph, loops = graph_of entry.Benchmarks.Registry.name in
      List.iter
        (fun (sets, ways) ->
          let config = Cache.Config.make ~sets ~ways ~line_bytes:16 () in
          for assoc = 0 to ways do
            Alcotest.(check (list string))
              (Printf.sprintf "%s %dx%d assoc %d" entry.Benchmarks.Registry.name sets ways assoc)
              []
              (mismatches ~graph ~loops ~config ~assoc:(fun _ -> assoc))
          done)
        classification_geometries)
    (Benchmarks.Registry.all @ Benchmarks.Registry.extras)

(* Random programs: tables bit-identical for all three mechanisms. *)
let random_tables ~count ~engine ~mechanisms name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name
       ~print:(fun p -> Format.asprintf "%a" Minic.Ast.pp_program p)
       Minic_gen.gen_program (fun program ->
         match Minic.Compile.compile program with
         | exception Minic.Typecheck.Error _ -> QCheck2.assume_fail ()
         | compiled ->
           let graph = Cfg.Graph.build compiled.Minic.Compile.program in
           let loops = Cfg.Loop.detect graph in
           let config = Cache.Config.make ~sets:8 ~ways:4 ~line_bytes:16 () in
           List.for_all
             (fun (_, expected, computed) -> expected = computed)
             (oracle_pairs ~graph ~loops ~config ~engine ~mechanisms)))

(* The ages are taken at config.ways, so no associativity above it can
   be read off them. *)
let test_assoc_above_ways () =
  let graph, loops = graph_of "fibcall" in
  let config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let rejected f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool)
    "analyze" true
    (rejected (fun () -> Chmc.analyze ~graph ~loops ~config ~assoc:(fun _ -> 3) ()));
  let baseline = Chmc.analyze ~graph ~loops ~config () in
  Alcotest.(check bool)
    "degraded" true
    (rejected (fun () -> Chmc.degraded baseline ~set:0 ~assoc:3))

let () =
  Alcotest.run "sliced_fmm"
    [ ( "differential",
        [ Alcotest.test_case "tables, path engine" `Quick test_tables_path
        ; Alcotest.test_case "tables, ilp engine" `Slow test_tables_ilp
        ; Alcotest.test_case "per-set classifications" `Quick test_slice_classifications
        ; random_tables ~count:25 ~engine:`Path ~mechanisms:Pwcet.Mechanism.all
            "random tables, path engine, all mechanisms"
        ; random_tables ~count:8 ~engine:`Ilp ~mechanisms:Pwcet.Mechanism.all
            "random tables, ilp engine, all mechanisms"
        ] )
    ; ( "thresholds",
        [ random_classifications
        ; Alcotest.test_case "registry, six geometries" `Quick test_registry_classifications
        ; Alcotest.test_case "assoc above ways rejected" `Quick test_assoc_above_ways
        ] )
    ]
