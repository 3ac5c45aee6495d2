(* The paper's shape claims (DESIGN.md §4) at the paper's own geometry:
   16 sets x 4 ways x 16 B, pfail 1e-4, target 1e-15. The 25 Fig. 4 rows
   come from the same Grid.run spec and the same Grid.fig4_rows reader
   as `pwcet_tool suite`, whose printed table test/golden pins byte for
   byte. Claim (iv), the ordering of the Fig. 3 curves, is the "curve
   ordering" test of test_pwcet.ml. The "ablations" group pins the
   three design-choice ablations EXPERIMENTS.md reports, at the same
   geometry. *)

module R = Pwcet.Report_data

let pfail = 1e-4
let target = 1e-15

let rows =
  lazy
    (let benchmarks =
       List.map
         (fun (e : Benchmarks.Registry.entry) ->
           ( e.Benchmarks.Registry.name,
             (Minic.Compile.compile e.Benchmarks.Registry.program).Minic.Compile.program ))
         Benchmarks.Registry.all
     in
     let spec =
       { Grid.benchmarks;
         configs = [ Cache.Config.make ~sets:16 ~ways:4 ~line_bytes:16 () ];
         mechanisms = Pwcet.Mechanism.all; pfail_grid = [ pfail ]; targets = [ target ];
         engine = `Path; exact = false; impl = `Sliced }
     in
     let cells = List.filter_map (fun (_, outcome) -> Result.to_option outcome) (Grid.run spec) in
     Grid.fig4_rows spec cells)

let rows_only () = List.map fst (Lazy.force rows)

let test_complete () =
  let rows = Lazy.force rows in
  Alcotest.(check int) "one row per registry program"
    (List.length Benchmarks.Registry.all) (List.length rows);
  List.iter
    (fun ((r : R.row), rung) ->
      Alcotest.(check bool) (r.name ^ " exact") true (Robust.Rung.equal rung Robust.Rung.Exact))
    rows

(* (i) Without protection, faults push the pWCET far above the
   fault-free WCET. *)
let test_no_protection_far_above () =
  let rows = rows_only () in
  List.iter
    (fun (r : R.row) ->
      if r.pwcet_none <= r.wcet_ff then
        Alcotest.failf "%s: pwcet none %d <= fault-free %d" r.name r.pwcet_none r.wcet_ff)
    rows;
  let ratios =
    List.sort compare
      (List.map (fun (r : R.row) -> float_of_int r.wcet_ff /. float_of_int r.pwcet_none) rows)
  in
  let median = List.nth ratios (List.length ratios / 2) in
  if median > 0.5 then Alcotest.failf "median ff/none %.3f > 0.5" median

(* (ii) Both mechanisms help every program, and RW never less than SRB. *)
let test_gains_ordered () =
  List.iter
    (fun (r : R.row) ->
      let srb = R.gain_srb r and rw = R.gain_rw r in
      if not (srb > 0.0 && rw > 0.0) then
        Alcotest.failf "%s: gains srb %.4f rw %.4f not positive" r.name srb rw;
      if rw < srb then
        Alcotest.failf "%s: gain rw %.6f < gain srb %.6f (pwcet rw %d, srb %d)" r.name rw srb
          r.pwcet_rw r.pwcet_srb)
    (rows_only ())

(* (iii) Every one of the paper's four behavioural categories occurs. *)
let test_all_categories () =
  let present = List.sort_uniq compare (List.map R.category (rows_only ())) in
  Alcotest.(check (list int)) "categories present" [ 1; 2; 3; 4 ] present

(* Section IV-B: on average RW gains at least as much as SRB. *)
let test_average_gains () =
  let rw, srb = R.average_gains (rows_only ()) in
  if rw < srb then Alcotest.failf "average gain rw %.4f < srb %.4f" rw srb

(* --- ablations -----------------------------------------------------------

   Three design choices of DESIGN.md, each with its figures pinned:
   the path engine against the exact ILP for the fault-free WCET, the
   persistence (first-miss) analysis turned off, and the convolution
   support cap. *)

let config = Cache.Config.paper_default

let tasks : (string, Pwcet.Estimator.task) Hashtbl.t = Hashtbl.create 8

let task_of name =
  match Hashtbl.find_opt tasks name with
  | Some t -> t
  | None ->
    let entry = Option.get (Benchmarks.Registry.find name) in
    let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
    let t = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
    Hashtbl.add tasks name t;
    t

(* (program, path-engine WCET, ILP WCET, WCET with persistence off) at
   16x4x16. *)
let ablation_rows =
  [ ("fibcall", 2151, 2151, 16209);
    ("bs", 4510, 4496, 10244);
    ("crc", 11148, 11145, 259242);
    ("insertsort", 6058, 6050, 91000);
    ("cnt", 6755, 6754, 109022);
    ("prime", 9578, 9271, 67295);
    ("expint", 6639, 6639, 44061) ]

let wcet task engine =
  (Ipet.Wcet.compute ~graph:task.Pwcet.Estimator.graph ~loops:task.Pwcet.Estimator.loops
     ~chmc:task.Pwcet.Estimator.chmc ~config ~engine ())
    .Ipet.Wcet.wcet

(* The path engine bounds the ILP optimum from above. *)
let test_path_above_ilp () =
  List.iter
    (fun (name, path, ilp, _) ->
      let task = task_of name in
      let got_path = wcet task `Path and got_ilp = wcet task `Ilp in
      if got_path < got_ilp then Alcotest.failf "%s: path %d < ilp %d" name got_path got_ilp;
      Alcotest.(check (pair int int)) (name ^ " path, ilp") (path, ilp) (got_path, got_ilp))
    ablation_rows

(* The path-engine WCET with every non-always-hit reference costed as a
   miss on each execution: first-miss references lose their one-miss
   charge. Unreachable nodes cost nothing, as in the estimator. *)
let wcet_without_persistence task =
  let graph = task.Pwcet.Estimator.graph and chmc = task.Pwcet.Estimator.chmc in
  let reachable = Array.make (Cfg.Graph.node_count graph) false in
  Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
  let node_cost u =
    if not reachable.(u) then 0
    else
      List.fold_left ( + ) 0
        (List.init (Cfg.Graph.node graph u).Cfg.Graph.len (fun k ->
             match Cache_analysis.Chmc.classification chmc ~node:u ~offset:k with
             | Cache_analysis.Chmc.Always_hit -> config.Cache.Config.hit_latency
             | _ -> config.Cache.Config.miss_latency))
  in
  Ipet.Path_engine.longest ~graph ~loops:task.Pwcet.Estimator.loops ~node_cost ~one_shots:[]

let test_persistence_off_above () =
  List.iter
    (fun (name, path, _, off) ->
      let task = task_of name in
      let got = wcet_without_persistence task in
      if got < path then Alcotest.failf "%s: persistence off %d < on %d" name got path;
      Alcotest.(check int) (name ^ " persistence off") off got)
    ablation_rows

(* adpcm without protection at pfail 1e-4: pWCET at 1e-15 and support
   size per cap. 65,536 is the default cap, which adpcm's 2,084 points
   never reach, so that row is the uncapped law. *)
let cap_rows = [ (16, 2642576, 16); (64, 962447, 64); (256, 962447, 256); (65536, 962447, 2084) ]

let test_cap_moves_quantile_up () =
  let task = task_of "adpcm" in
  let est = Pwcet.Estimator.estimate task ~pfail ~mechanism:Pwcet.Mechanism.No_protection () in
  let fmm = est.Pwcet.Estimator.fmm and pbf = est.Pwcet.Estimator.pbf in
  let at max_points =
    let d = Pwcet.Penalty.total_distribution ~max_points ~fmm ~pbf () in
    (Pwcet.Estimator.fault_free_wcet task + Prob.Dist.quantile d ~target, Prob.Dist.size d)
  in
  let uncapped, size = at max_int in
  Alcotest.(check int) "uncapped support below the default cap" 2084 size;
  List.iter
    (fun (max_points, pwcet, size) ->
      let got = at max_points in
      if fst got < uncapped then
        Alcotest.failf "cap %d: pWCET %d < uncapped %d" max_points (fst got) uncapped;
      Alcotest.(check (pair int int)) (Printf.sprintf "cap %d pWCET, size" max_points)
        (pwcet, size) got)
    cap_rows

let () =
  Alcotest.run "claims"
    [ ( "paper geometry",
        [ Alcotest.test_case "25 exact rows" `Quick test_complete
        ; Alcotest.test_case "(i) no protection far above fault-free" `Quick
            test_no_protection_far_above
        ; Alcotest.test_case "(ii) gains positive, rw >= srb" `Quick test_gains_ordered
        ; Alcotest.test_case "(iii) all four categories" `Quick test_all_categories
        ; Alcotest.test_case "IV-B average rw >= srb" `Quick test_average_gains
        ] )
    ; ( "ablations",
        [ Alcotest.test_case "path engine >= ILP" `Quick test_path_above_ilp
        ; Alcotest.test_case "persistence off >= on" `Quick test_persistence_off_above
        ; Alcotest.test_case "cap only moves the quantile up" `Quick test_cap_moves_quantile_up
        ] )
    ]
