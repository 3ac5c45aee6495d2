(* Differential tests for the set-sliced incremental FMM engine: the
   sliced engine (per-set condensed fixpoints, monotone skips, saturation
   early-exit) must be observationally identical to the naive oracle
   (whole-CFG re-analysis per (set, fault count), [Oracle.Fmm]) — same
   per-reference classifications at every fault count and bit-identical
   FMM tables, for every mechanism and both delta engines. *)

module Chmc = Cache_analysis.Chmc
module Context = Cache_analysis.Context
module Slice = Cache_analysis.Slice

let classification =
  Alcotest.testable Chmc.pp_classification (fun a b -> a = b)

let table = Alcotest.(array (array int))

let graph_of name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let graph = Cfg.Graph.build compiled.Minic.Compile.program in
  (graph, Cfg.Loop.detect graph)

(* Each mechanism's table from a one-mechanism [Fmm.compute] against the
   oracle's. *)
let oracle_pairs ~graph ~loops ~config ~engine ~mechanisms =
  List.map
    (fun (mechanism, expected) ->
      ( mechanism,
        expected,
        Pwcet.Fmm.table (Pwcet.Fmm.compute ~graph ~loops ~config ~mechanism ~engine ()) ))
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

(* Per-(set, fault count) classification identity: the condensed
   per-set fixpoint must classify every reference of the set exactly as
   the whole-CFG degraded analysis does, at every associativity, with
   the incremental [?prev] threading the FMM row uses. *)
let test_slice_classifications () =
  List.iter
    (fun name ->
      let graph, loops = graph_of name in
      let config = Cache.Config.make ~sets:16 ~ways:4 ~line_bytes:16 () in
      let ways = config.Cache.Config.ways in
      let ctx = Context.make ~graph ~loops ~config in
      let baseline = Chmc.analyze ~ctx ~graph ~loops ~config () in
      for set = 0 to config.Cache.Config.sets - 1 do
        if Array.length ctx.Context.touching.(set) > 0 then begin
          let slice = Slice.make ctx ~set in
          let prev = ref None in
          for f = 1 to ways - 1 do
            let assoc = ways - f in
            let r = Slice.analyze slice ~assoc ?prev:!prev () in
            prev := Some r;
            let full =
              Chmc.analyze ~graph ~loops ~config
                ~assoc:(fun s -> if s = set then assoc else ways)
                ~only_sets:[ set ] ()
            in
            Chmc.fold_refs
              (fun ~node ~offset _ () ->
                if Chmc.cache_set baseline ~node ~offset = set then
                  Alcotest.check classification
                    (Printf.sprintf "%s set %d f %d node %d.%d" name set f node offset)
                    (Chmc.classification full ~node ~offset)
                    (Slice.classification r ~node ~offset))
              baseline ()
          done
        end
      done)
    [ "fibcall"; "bs"; "crc" ]

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
    ]
