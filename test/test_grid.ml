(* Tests for the one-pass cross-configuration grid engine: every cell
   must be bit-identical to an independent per-cell run, for random
   sub-grids, every [jobs] value, and under journal-style replay. *)

module M = Pwcet.Mechanism
module Fmm = Pwcet.Fmm
module Estimator = Pwcet.Estimator
module Rung = Robust.Rung

let compile name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  compiled.Minic.Compile.program

let small_config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 ()
let tiny_config = Cache.Config.make ~sets:4 ~ways:4 ~line_bytes:16 ()

(* --- compute_multi differential: the shared-prefix claim ------------------ *)

let rung_tags fmm =
  Array.init (Fmm.config fmm).Cache.Config.sets (fun set ->
      Array.init
        ((Fmm.config fmm).Cache.Config.ways + 1)
        (fun faulty -> Rung.to_tag (Fmm.provenance fmm ~set ~faulty)))

let test_compute_multi_bit_identical () =
  List.iter
    (fun name ->
      let program = compile name in
      let graph = Cfg.Graph.build program in
      let loops = Cfg.Loop.detect graph in
      List.iter
        (fun config ->
          let multi = Fmm.compute_multi ~graph ~loops ~config ~mechanisms:M.all () in
          let oracle = Oracle.Fmm.tables ~graph ~loops ~config ~mechanisms:M.all () in
          List.iter2
            (fun (mechanism, fmm) (_, expected) ->
              let solo =
                snd (List.hd (Fmm.compute_multi ~graph ~loops ~config ~mechanisms:[ mechanism ] ()))
              in
              let tag s = Printf.sprintf "%s/%s %s" name (M.short_name mechanism) s in
              Alcotest.(check (array (array int))) (tag "oracle table") expected (Fmm.table fmm);
              Alcotest.(check (array (array int)))
                (tag "table") (Fmm.table solo) (Fmm.table fmm);
              Alcotest.(check (array (array int)))
                (tag "provenance") (rung_tags solo) (rung_tags fmm))
            multi oracle)
        [ small_config; tiny_config ])
    [ "fibcall"; "bs"; "crc" ]

(* --- random sub-grids vs independent estimates ---------------------------- *)

let bench_names = [| "fibcall"; "bs"; "insertsort" |]
let all_pfails = [| 1e-6; 1e-5; 1e-4; 1e-3 |]
let targets = [ 1e-9; 1e-15 ]

let gen_subgrid =
  QCheck2.Gen.(
    let* n_bench = int_range 1 2 in
    let* bench_off = int_range 0 (Array.length bench_names - n_bench) in
    let* mech_mask = int_range 1 7 in
    let* n_pfail = int_range 1 3 in
    let* pfail_off = int_range 0 (Array.length all_pfails - n_pfail) in
    let* two_geom = bool in
    let benches = Array.to_list (Array.sub bench_names bench_off n_bench) in
    let mechs = List.filteri (fun i _ -> mech_mask land (1 lsl i) <> 0) M.all in
    let pfails = Array.to_list (Array.sub all_pfails pfail_off n_pfail) in
    return (benches, mechs, pfails, two_geom))

let spec_of (benches, mechs, pfails, two_geom) =
  {
    Grid.benchmarks = List.map (fun n -> (n, compile n)) benches;
    configs = (if two_geom then [ small_config; tiny_config ] else [ small_config ]);
    mechanisms = mechs;
    pfail_grid = pfails;
    targets;
    engine = `Path;
    exact = false;
    impl = `Sliced;
  }

let check_cell_matches_independent tasks (point, outcome) =
  match outcome with
  | Error e ->
    Alcotest.failf "cell %s failed: %s" (Grid.point_key point)
      (Robust.Pwcet_error.to_string e)
  | Ok cell ->
    let task = Hashtbl.find tasks (point.Grid.bench, point.Grid.config) in
    let e =
      Estimator.estimate task ~pfail:point.Grid.pfail ~mechanism:point.Grid.mechanism ()
    in
    let tag s = Printf.sprintf "%s %s" (Grid.point_key point) s in
    Alcotest.(check int) (tag "wcet_ff") (Estimator.fault_free_wcet task) cell.Grid.wcet_ff;
    Alcotest.(check (float 0.)) (tag "pbf") e.Estimator.pbf cell.Grid.pbf;
    List.iter
      (fun target ->
        Alcotest.(check int)
          (tag (Printf.sprintf "pwcet@%g" target))
          (Estimator.pwcet e ~target)
          (List.assoc target cell.Grid.pwcets))
      targets;
    Alcotest.(check string) (tag "rung")
      (Rung.to_string (Estimator.worst_rung e))
      (Rung.to_string cell.Grid.rung)

let test_grid_matches_independent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8 ~name:"random sub-grid bit-identical to independent runs"
       gen_subgrid (fun sub ->
         let spec = spec_of sub in
         let results = Grid.run ~jobs:1 spec in
         let tasks = Hashtbl.create 8 in
         List.iter
           (fun (name, program) ->
             List.iter
               (fun config ->
                 Hashtbl.replace tasks (name, config)
                   (Estimator.prepare ~program ~config ()))
               spec.Grid.configs)
           spec.Grid.benchmarks;
         List.iter (check_cell_matches_independent tasks) results;
         true))

let test_grid_jobs_digest_identical () =
  let spec =
    spec_of ([ "fibcall"; "bs" ], M.all, [ 1e-5; 1e-4; 1e-3 ], true)
  in
  let reference = Grid.run ~jobs:1 spec in
  let d1 = Grid.digest reference in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d digest" jobs)
        d1
        (Grid.digest (Grid.run ~jobs spec)))
    [ 2; 4 ]

let test_grid_replay_skip () =
  (* Replaying every other cell from a previous run (the journal-resume
     path) must reproduce the full matrix byte-for-byte, and the
     on_cell callback must fire exactly for the non-replayed cells. *)
  let spec = spec_of ([ "fibcall" ], M.all, [ 1e-5; 1e-4 ], false) in
  let reference = Grid.run ~jobs:1 spec in
  let replayed = Hashtbl.create 8 in
  List.iteri
    (fun i (point, outcome) ->
      match outcome with
      | Ok cell when i mod 2 = 0 -> Hashtbl.replace replayed (Grid.point_key point) cell
      | _ -> ())
    reference;
  let fresh = ref 0 in
  let resumed =
    Grid.run ~jobs:2
      ~skip:(fun point -> Hashtbl.find_opt replayed (Grid.point_key point))
      ~on_cell:(fun _ _ -> incr fresh)
      spec
  in
  Alcotest.(check string) "resumed digest" (Grid.digest reference) (Grid.digest resumed);
  Alcotest.(check int) "on_cell fired only for fresh cells"
    (List.length reference - Hashtbl.length replayed)
    !fresh

let test_single_panel_unused_sets () =
  (* One panel at a geometry most of whose sets no reference maps to:
     the row nodes past the used sets must do nothing, and the cells
     must equal independent estimates at every jobs value. *)
  let config = Cache.Config.make ~sets:64 ~ways:4 ~line_bytes:16 () in
  let spec =
    { (spec_of ([ "fibcall" ], M.all, [ 1e-5; 1e-4 ], false)) with Grid.configs = [ config ] }
  in
  let task = Estimator.prepare ~program:(compile "fibcall") ~config () in
  let tasks = Hashtbl.create 1 in
  Hashtbl.replace tasks ("fibcall", config) task;
  let reference = Grid.run ~jobs:1 spec in
  List.iter
    (fun jobs ->
      let results = Grid.run ~jobs spec in
      List.iter (check_cell_matches_independent tasks) results;
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d digest" jobs)
        (Grid.digest reference) (Grid.digest results))
    [ 1; 2; 4 ]

let test_cell_wire_roundtrip () =
  let spec = spec_of ([ "fibcall" ], [ M.Shared_reliable_buffer ], [ 1e-4 ], false) in
  List.iter
    (fun (_, outcome) ->
      match outcome with
      | Error _ -> Alcotest.fail "unexpected cell failure"
      | Ok cell -> (
        match Grid.cell_of_wire (Grid.cell_to_wire cell) with
        | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
        | Ok cell' ->
          Alcotest.(check string) "wire roundtrip" (Grid.cell_to_wire cell)
            (Grid.cell_to_wire cell')))
    (Grid.run ~jobs:1 spec);
  (* A truncated record decodes to Error, never to garbage. *)
  match Grid.cell_of_wire "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode"

let test_grid_store_warm_identical () =
  (* A grid run over a warm store must be bit-identical to the cold run
     that filled it, and single-point estimates must be able to warm a
     grid (shared per-mechanism FMM keys). *)
  let dir = Filename.temp_file "grid_store" "" in
  Sys.remove dir;
  let store = Store.Artifact.open_store ~dir () in
  let spec = spec_of ([ "bs" ], M.all, [ 1e-5; 1e-4 ], false) in
  let cold = Grid.run ~jobs:1 ~store spec in
  let warm = Grid.run ~jobs:4 ~store spec in
  Alcotest.(check string) "cold = warm digest" (Grid.digest cold) (Grid.digest warm)

let test_identity_pinned () =
  (* [Grid.identity] hashes each program once; its list must still be,
     element for element, the per-(program, geometry) [identity_of]
     concatenation it replaced. *)
  let spec = spec_of ([ "fibcall"; "bs" ], M.all, [ 1e-5; 1e-4 ], true) in
  let float_key f = Int64.to_string (Int64.bits_of_float f) in
  let expected =
    List.concat_map
      (fun (name, program) ->
        List.concat_map
          (fun config -> ("bench", name) :: Estimator.identity_of ~program ~config)
          spec.Grid.configs)
      spec.Grid.benchmarks
    @ [ ("mechanisms", String.concat "," (List.map M.short_name M.all));
        ("pfail-grid", String.concat "," (List.map float_key [ 1e-5; 1e-4 ]));
        ("targets", String.concat "," (List.map float_key targets));
        ("engine", "path");
        ("exact", "false");
        ("impl", "sliced") ]
  in
  Alcotest.(check (list (pair string string))) "identity" expected (Grid.identity spec)

let test_identity_from_digests () =
  (* The digests a caller already holds (the daemon's compiled memo,
     the CLI's one hash per program) give the key the hashing form
     gives, on several programs and geometries. *)
  let spec = spec_of ([ "fibcall"; "bs"; "crc" ], M.all, [ 1e-5; 1e-4 ], true) in
  let digests =
    List.map (fun (name, program) -> (name, Estimator.program_digest program)) spec.Grid.benchmarks
  in
  let digest name = List.assoc name digests in
  Alcotest.(check (list (pair string string)))
    "identity" (Grid.identity spec) (Grid.identity ~digest spec)

let () =
  Alcotest.run "grid"
    [ ( "sharing",
        [ Alcotest.test_case "compute_multi = per-mechanism compute" `Quick
            test_compute_multi_bit_identical
        ] )
    ; ( "grid",
        [ test_grid_matches_independent
        ; Alcotest.test_case "jobs 1 = 2 = 4 digests" `Quick test_grid_jobs_digest_identical
        ; Alcotest.test_case "replay skip reproduces matrix" `Quick test_grid_replay_skip
        ; Alcotest.test_case "single panel with unused sets" `Quick
            test_single_panel_unused_sets
        ; Alcotest.test_case "cell wire roundtrip" `Quick test_cell_wire_roundtrip
        ; Alcotest.test_case "cold = warm store" `Quick test_grid_store_warm_identical
        ; Alcotest.test_case "identity pinned" `Quick test_identity_pinned
        ; Alcotest.test_case "identity from held digests" `Quick test_identity_from_digests
        ] )
    ]
