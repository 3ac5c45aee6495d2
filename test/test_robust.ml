(* Tests for the graceful-degradation layer: typed errors, budgets, the
   Exact -> Relaxed -> Structural solver ladder (QCheck properties on
   random programs pin that every degraded bound dominates the exact
   one), budget-starved end-to-end estimates, the fixpoint iteration
   cap, NaN rejection at the probability boundaries, and the invariant
   auditor. *)

module E = Robust.Pwcet_error
module Budget = Robust.Budget
module Rung = Robust.Rung
module Lp = Ilp.Lp
module BB = Ilp.Branch_bound
module Solver = Ilp.Solver
module M = Pwcet.Mechanism

let small_config = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 ()

let expired_budget =
  (* A deadline in the distant past: every deadline check fails
     immediately, deterministically. *)
  { Budget.ilp_nodes = None; fixpoint_iters = None; deadline = Some 0.0 }

(* --- error type and budget units ------------------------------------------ *)

let test_error_roundtrip () =
  let cases =
    [ (E.Infeasible "m1", "infeasible")
    ; (E.Unbounded "m2", "unbounded")
    ; (E.Budget_exhausted "m3", "budget-exhausted")
    ; (E.Fixpoint_divergence "m4", "fixpoint-divergence")
    ; (E.Invalid_input "m5", "invalid-input")
    ; (E.Worker_crash "m6", "worker-crash")
    ]
  in
  List.iter
    (fun (e, cat) ->
      Alcotest.(check string) "category" cat (E.category e);
      Alcotest.(check string) "to_string" (cat ^ ": " ^ E.message e) (E.to_string e);
      match E.raise_error e with
      | _ -> Alcotest.fail "raise_error must raise"
      | exception E.Error e' -> Alcotest.(check string) "payload" (E.to_string e) (E.to_string e'))
    cases

let test_budget_validation () =
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "negative timeout" (fun () -> Budget.make ~timeout:(-1.0) ());
  expect_invalid "nan timeout" (fun () -> Budget.make ~timeout:Float.nan ());
  expect_invalid "infinite timeout" (fun () -> Budget.make ~timeout:Float.infinity ());
  expect_invalid "negative ilp_nodes" (fun () -> Budget.make ~ilp_nodes:(-1) ());
  expect_invalid "negative fixpoint_iters" (fun () -> Budget.make ~fixpoint_iters:(-1) ());
  Alcotest.(check bool) "unlimited never expires" false (Budget.expired Budget.unlimited);
  Alcotest.(check bool) "no deadline from caps" true
    ((Budget.make ~ilp_nodes:5 ()).Budget.deadline = None);
  Alcotest.(check bool) "past deadline expired" true (Budget.expired expired_budget);
  (match Budget.check_deadline ~what:"unit" expired_budget with
  | Error (E.Budget_exhausted msg) ->
    Alcotest.(check bool) "names the stage" true
      (String.length msg >= 4 && String.sub msg 0 4 = "unit")
  | Ok () | Error _ -> Alcotest.fail "expected Budget_exhausted");
  match Budget.check_deadline ~what:"unit" Budget.unlimited with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unlimited deadline must pass"

(* Regression for the monotonic-clock fix: [Budget.now] must read
   CLOCK_MONOTONIC, not the wall clock, or an NTP step / manual clock
   change fires (or indefinitely postpones) every in-flight deadline a
   daemon holds open.  A test cannot step the system clock, but the
   scale check is equivalent: any clock on the epoch scale IS the
   steppable wall clock.  Pre-fix ([Unix.gettimeofday]) the two
   readings below coincide to within microseconds; post-fix the
   monotonic origin is boot time, decades away from 1970. *)
let test_budget_monotonic_clock () =
  let wall = Unix.gettimeofday () in
  let mono = Budget.now () in
  let year = 365.0 *. 86_400.0 in
  Alcotest.(check bool) "now() is not on the wall-clock (epoch) scale" true
    (Float.abs (wall -. mono) > year);
  let prev = ref (Budget.now ()) in
  for i = 1 to 100_000 do
    let t = Budget.now () in
    if t < !prev then Alcotest.failf "now() went backwards at sample %d" i;
    prev := t
  done;
  (* Deadline arithmetic stays on the [now] scale: a generous fresh
     timeout is live, an already-elapsed one is expired. *)
  Alcotest.(check bool) "fresh deadline live" false
    (Budget.expired (Budget.make ~timeout:3600.0 ()));
  let zero = Budget.make ~timeout:0.0 () in
  Unix.sleepf 0.005;
  Alcotest.(check bool) "elapsed deadline expired" true (Budget.expired zero)

let test_rung_order () =
  Alcotest.(check bool) "exact < relaxed" true (Rung.compare Rung.Exact Rung.Relaxed < 0);
  Alcotest.(check bool) "relaxed < structural" true
    (Rung.compare Rung.Relaxed Rung.Structural < 0);
  Alcotest.(check bool) "worst picks looser" true
    (Rung.equal (Rung.worst Rung.Exact Rung.Structural) Rung.Structural);
  Alcotest.(check bool) "worst commutes" true
    (Rung.equal (Rung.worst Rung.Relaxed Rung.Exact) (Rung.worst Rung.Exact Rung.Relaxed))

(* --- solver ladder on a hand-built ILP ------------------------------------ *)

(* max x + y  st  2x + 2y <= 3, x y integer: relaxation gives 3/2
   (fractional), the integer optimum is 1 — branching is required, so a
   1-node budget must exhaust. *)
let fractional_ilp () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () and y = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 2); (y, 2) ] Lp.Le 3;
  Lp.set_objective_int lp [ (x, 1); (y, 1) ];
  lp

let test_solve_within_exhausts () =
  let lp = fractional_ilp () in
  (match BB.solve_within ~max_nodes:1 lp with
  | BB.Exhausted -> ()
  | BB.Finished _ -> Alcotest.fail "1 node cannot finish a branching search");
  match BB.solve_within lp with
  | BB.Finished (BB.Optimal sol) ->
    Alcotest.(check bool) "integer optimum 1" true
      (Numeric.Rat.equal sol.Ilp.Simplex.objective (Numeric.Rat.of_int 1))
  | _ -> Alcotest.fail "default budget must finish"

let test_solve_within_deadline () =
  match BB.solve_within ~deadline:0.0 ~max_nodes:max_int (fractional_ilp ()) with
  | BB.Exhausted -> ()
  | BB.Finished _ -> Alcotest.fail "past deadline must exhaust"

let test_bounded_objective_ladder () =
  let exact =
    match Solver.bounded_objective ~exact:true (fractional_ilp ()) with
    | Ok b -> b
    | Error e -> Alcotest.failf "exact: %s" (E.to_string e)
  in
  Alcotest.(check int) "exact value" 1 exact.Solver.value;
  Alcotest.(check bool) "exact rung" true (Rung.equal exact.Solver.rung Rung.Exact);
  let starved =
    match
      Solver.bounded_objective ~budget:(Budget.make ~ilp_nodes:1 ()) ~exact:true
        (fractional_ilp ())
    with
    | Ok b -> b
    | Error e -> Alcotest.failf "starved: %s" (E.to_string e)
  in
  Alcotest.(check bool) "starved rung relaxed" true (Rung.equal starved.Solver.rung Rung.Relaxed);
  Alcotest.(check bool) "relaxed >= exact" true (starved.Solver.value >= exact.Solver.value);
  Alcotest.(check int) "ceil(3/2)" 2 starved.Solver.value;
  let relaxed_only =
    match Solver.bounded_objective ~exact:false (fractional_ilp ()) with
    | Ok b -> b
    | Error e -> Alcotest.failf "relaxed: %s" (E.to_string e)
  in
  Alcotest.(check bool) "explicit relaxation" true
    (Rung.equal relaxed_only.Solver.rung Rung.Relaxed && relaxed_only.Solver.value = 2)

let test_bounded_objective_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 1) ] Lp.Le 3;
  Lp.add_constr_int lp [ (x, 1) ] Lp.Ge 5;
  Lp.set_objective_int lp [ (x, 1) ];
  match Solver.bounded_objective ~exact:true lp with
  | Error (E.Infeasible _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Infeasible"

(* --- fixpoint iteration cap ----------------------------------------------- *)

let test_fixpoint_divergence () =
  (* A two-node cycle whose transfer never stabilises: without a cap
     this loops forever; with one it must surface the typed error. *)
  let diverging () =
    Cache_analysis.Fixpoint.run_custom ~n:2 ~entry:0
      ~succ:(function 0 -> [ 1 ] | _ -> [ 0 ])
      ~priority:[| 0; 1 |] ~entry_state:0
      ~transfer:(fun _ s -> s + 1)
      ~join:max ~equal:( = ) ~max_iters:50 ()
  in
  match diverging () with
  | _ -> Alcotest.fail "expected Fixpoint_divergence"
  | exception E.Error (E.Fixpoint_divergence _) -> ()

(* --- NaN rejection at the probability boundaries --------------------------- *)

let test_nan_rejection () =
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let dist = Prob.Dist.of_points [ (0, 0.5); (10, 0.5) ] in
  expect_invalid "quantile nan" (fun () -> Prob.Dist.quantile dist ~target:Float.nan);
  expect_invalid "quantile -inf" (fun () ->
      Prob.Dist.quantile dist ~target:Float.neg_infinity);
  Alcotest.(check int) "quantile 0 still works" 10 (Prob.Dist.quantile dist ~target:0.0);
  expect_invalid "pbf nan" (fun () -> Fault.Model.pbf ~pfail:Float.nan ~block_bits:128);
  expect_invalid "pbf above 1" (fun () -> Fault.Model.pbf ~pfail:1.5 ~block_bits:128);
  expect_invalid "way_distribution nan" (fun () ->
      Fault.Model.way_distribution ~ways:4 ~pbf:Float.nan);
  expect_invalid "way_distribution_rw inf" (fun () ->
      Fault.Model.way_distribution_rw ~ways:4 ~pbf:Float.infinity);
  expect_invalid "fault_map sample nan" (fun () ->
      Oracle.Fault_map.sample small_config ~pbf:Float.nan (Random.State.make [| 1 |]))

(* --- FMM provenance and degraded estimates --------------------------------- *)

let graph_of name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let program = compiled.Minic.Compile.program in
  let graph = Cfg.Graph.build program in
  let loops = Cfg.Loop.detect graph in
  (program, graph, loops)

let test_fmm_deadline_fallback () =
  let _, graph, loops = graph_of "fibcall" in
  let compute ?budget () =
    snd
      (List.hd
         (Pwcet.Fmm.compute_multi ~graph ~loops ~config:small_config
            ~mechanisms:[ M.No_protection ] ?budget ()))
  in
  let exact = compute () in
  let starved = compute ~budget:expired_budget () in
  Alcotest.(check bool) "exact run has exact rung" true
    (Rung.equal (Pwcet.Fmm.worst_rung exact) Rung.Exact);
  Alcotest.(check (list (pair int string))) "exact run has no errors" []
    (List.map (fun (s, e) -> (s, E.category e)) (Pwcet.Fmm.errors exact));
  Alcotest.(check bool) "starved run is structural" true
    (Rung.equal (Pwcet.Fmm.worst_rung starved) Rung.Structural);
  Alcotest.(check bool) "errors recorded" true (Pwcet.Fmm.errors starved <> []);
  List.iter
    (fun (_, e) ->
      Alcotest.(check string) "budget-exhausted rows" "budget-exhausted" (E.category e))
    (Pwcet.Fmm.errors starved);
  Alcotest.(check bool) "degraded cells counted" true (Pwcet.Fmm.degraded_cells starved > 0);
  (* Soundness: the fallback dominates the exact table pointwise. *)
  let ways = small_config.Cache.Config.ways in
  for set = 0 to small_config.Cache.Config.sets - 1 do
    for f = 0 to ways do
      let e = Pwcet.Fmm.misses exact ~set ~faulty:f in
      let s = Pwcet.Fmm.misses starved ~set ~faulty:f in
      if s < e then Alcotest.failf "set %d f %d: starved %d < exact %d" set f s e;
      if s > e && Rung.equal (Pwcet.Fmm.provenance starved ~set ~faulty:f) Rung.Exact then
        Alcotest.failf "set %d f %d: inflated cell tagged Exact" set f
    done
  done

let test_worker_crash_isolation_in_fmm () =
  (* A 1-item deadline cannot fire between items; instead check that
     of_table provenance plumbing round-trips. *)
  let table = [| [| 0; 1; 1 |]; [| 0; 0; 2 |] |] in
  let cfg = Cache.Config.make ~sets:2 ~ways:2 ~line_bytes:16 () in
  let p = [| [| Rung.Exact; Rung.Relaxed; Rung.Relaxed |]; [| Rung.Exact; Rung.Exact; Rung.Structural |] |] in
  let fmm =
    Pwcet.Fmm.of_table ~config:cfg ~mechanism:M.No_protection ~provenance:p
      ~errors:[ (1, E.Worker_crash "Boom") ] table
  in
  Alcotest.(check bool) "worst is structural" true
    (Rung.equal (Pwcet.Fmm.worst_rung fmm) Rung.Structural);
  Alcotest.(check int) "degraded cells" 3 (Pwcet.Fmm.degraded_cells fmm);
  Alcotest.(check bool) "cell rung" true
    (Rung.equal (Pwcet.Fmm.provenance fmm ~set:0 ~faulty:1) Rung.Relaxed);
  match Pwcet.Fmm.errors fmm with
  | [ (1, E.Worker_crash msg) ] ->
    Alcotest.(check string) "original text kept" "Boom" msg
  | _ -> Alcotest.fail "errors not preserved"

(* --- QCheck: ladder dominance on random programs --------------------------- *)

let prepared program =
  match Minic.Compile.compile program with
  | exception (Minic.Typecheck.Error _ | Minic.Compile.Error _) -> None
  | compiled ->
    let program = compiled.Minic.Compile.program in
    let graph = Cfg.Graph.build program in
    let loops = Cfg.Loop.detect graph in
    let chmc = Cache_analysis.Chmc.analyze ~graph ~loops ~config:small_config () in
    Some (graph, loops, chmc)

let wcet_ladder_dominates =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8 ~name:"relaxed and structural WCET dominate exact"
       Minic_gen.gen_program (fun program ->
         match prepared program with
         | None -> true
         | Some (graph, loops, chmc) ->
           let solve ~exact ?budget () =
             match
               Ipet.Wcet.compute_result ~graph ~loops ~chmc ~config:small_config ~engine:`Ilp
                 ~exact ?budget ()
             with
             | Ok (r, rung) -> (r.Ipet.Wcet.wcet, rung)
             | Error e -> QCheck2.Test.fail_reportf "wcet: %s" (E.to_string e)
           in
           let exact_w, exact_rung = solve ~exact:true () in
           let relaxed_w, relaxed_rung = solve ~exact:false () in
           let starved_w, _ = solve ~exact:true ~budget:(Budget.make ~ilp_nodes:1 ()) () in
           let structural =
             Ipet.Wcet.structural_bound ~graph ~loops ~config:small_config
           in
           if not (Rung.equal exact_rung Rung.Exact) then
             QCheck2.Test.fail_reportf "exact solve tagged %s" (Rung.to_string exact_rung);
           if not (Rung.equal relaxed_rung Rung.Relaxed) then
             QCheck2.Test.fail_reportf "relaxation tagged %s" (Rung.to_string relaxed_rung);
           relaxed_w >= exact_w && starved_w >= exact_w && structural >= exact_w))

let fmm_ladder_dominates =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:6 ~name:"relaxed and structural FMM cells dominate exact"
       Minic_gen.gen_program (fun program ->
         match prepared program with
         | None -> true
         | Some (graph, loops, chmc) ->
           let compute ~exact =
             snd
               (List.hd
                  (Pwcet.Fmm.compute_multi ~graph ~loops ~config:small_config
                     ~mechanisms:[ M.No_protection ] ~engine:`Ilp ~exact ()))
           in
           let exact_fmm = compute ~exact:true in
           let relaxed_fmm = compute ~exact:false in
           let ways = small_config.Cache.Config.ways in
           for set = 0 to small_config.Cache.Config.sets - 1 do
             let structural =
               Ipet.Delta.structural_extra_misses ~graph ~loops ~config:small_config
                 ~baseline:chmc ~sets:[ set ] ()
             in
             for f = 0 to ways do
               let e = Pwcet.Fmm.misses exact_fmm ~set ~faulty:f in
               let r = Pwcet.Fmm.misses relaxed_fmm ~set ~faulty:f in
               if r < e then
                 QCheck2.Test.fail_reportf "set %d f %d: relaxed %d < exact %d" set f r e;
               if structural < e then
                 QCheck2.Test.fail_reportf "set %d f %d: structural %d < exact %d" set f
                   structural e;
               if
                 r > e
                 && Rung.equal (Pwcet.Fmm.provenance relaxed_fmm ~set ~faulty:f) Rung.Exact
               then QCheck2.Test.fail_reportf "set %d f %d: inflated cell tagged Exact" set f
             done
           done;
           true))

let starved_estimate_sound =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:4 ~name:"budget-starved pWCET dominates unbudgeted"
       Minic_gen.gen_program (fun program ->
         match Minic.Compile.compile program with
         | exception (Minic.Typecheck.Error _ | Minic.Compile.Error _) -> true
         | compiled ->
           let program = compiled.Minic.Compile.program in
           let task =
             Pwcet.Estimator.prepare ~program ~config:small_config ~engine:`Ilp ~exact:true ()
           in
           let est budget =
             Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:M.No_protection
               ~engine:`Ilp ~exact:true ?budget ()
           in
           let full = est None in
           let starved = est (Some (Budget.make ~ilp_nodes:1 ())) in
           let targets = [ 0.5; 1e-3; 1e-9; 1e-15 ] in
           List.iter
             (fun target ->
               let f = Pwcet.Estimator.pwcet full ~target in
               let s = Pwcet.Estimator.pwcet starved ~target in
               if s < f then
                 QCheck2.Test.fail_reportf "target %g: starved %d < unbudgeted %d" target s f)
             targets;
           (* Identical tables must be tagged exact; inflated ones must
              not be. *)
           let same_table =
             Pwcet.Fmm.table starved.Pwcet.Estimator.fmm
             = Pwcet.Fmm.table full.Pwcet.Estimator.fmm
           in
           (not (Rung.equal (Pwcet.Estimator.worst_rung starved) Rung.Exact)) || same_table))

(* --- auditor ---------------------------------------------------------------- *)

let compiled_of name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  (compiled.Minic.Compile.program, compiled.Minic.Compile.data)

let test_audit_passes_on_real_estimates () =
  let program, data = compiled_of "fibcall" in
  let task = Pwcet.Estimator.prepare ~program ~config:small_config () in
  let trace = Sim.Campaign.trace ~program ~data ~config:small_config in
  let ests =
    List.map (fun m -> (m, Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism:m ())) M.all
  in
  let baseline = List.assoc M.No_protection ests in
  let report =
    Pwcet.Audit.merge
      (List.map (fun (_, e) -> Pwcet.Audit.check_estimate e) ests
      @ List.map
          (fun (_, e) -> Pwcet.Audit.check_campaign ~trace ~samples:20 ~seed:7 ~jobs:1 e)
          ests
      @ List.filter_map
          (fun (m, e) ->
            if M.equal m M.No_protection then None
            else Some (Pwcet.Audit.check_dominance ~baseline ~other:e))
          ests)
  in
  if not (Pwcet.Audit.ok report) then
    Alcotest.failf "unexpected violations: %s" (Format.asprintf "%a" Pwcet.Audit.pp_report report);
  Alcotest.(check bool) "ran checks" true (report.Pwcet.Audit.checks > 0)

(* An all-zero FMM claims faults never cost a miss. Its law is the
   point 0, which every structural check accepts, so only fault
   patterns timed by trace replay can refute it. *)
let test_audit_flags_unsound_fmm () =
  let program, data = compiled_of "crc" in
  let task = Pwcet.Estimator.prepare ~program ~config:small_config () in
  let trace = Sim.Campaign.trace ~program ~data ~config:small_config in
  let sets = small_config.Cache.Config.sets and ways = small_config.Cache.Config.ways in
  List.iter
    (fun m ->
      let fmm =
        Pwcet.Fmm.of_table ~config:small_config ~mechanism:m
          (Array.init sets (fun _ -> Array.make (ways + 1) 0))
      in
      let e = Pwcet.Estimator.estimate_of_fmm task ~fmm ~pfail:1e-2 () in
      let what = M.short_name m in
      Alcotest.(check bool) (what ^ ": structural checks pass") true
        (Pwcet.Audit.ok (Pwcet.Audit.check_estimate e));
      let r = Pwcet.Audit.check_campaign ~trace ~samples:1000 ~seed:42 ~jobs:1 e in
      Alcotest.(check bool) (what ^ ": campaign flags the FMM") false (Pwcet.Audit.ok r))
    M.all

let test_audit_flags_bad_artefacts () =
  let bad_curve = [ (10, 0.5); (20, 0.7); (30, 0.1) ] in
  let r = Pwcet.Audit.check_exceedance_curve ~what:"synthetic" bad_curve in
  Alcotest.(check bool) "rising curve flagged" false (Pwcet.Audit.ok r);
  let sub = Prob.Dist.scale 0.5 (Prob.Dist.of_points [ (0, 1.0) ]) in
  let r2 = Pwcet.Audit.check_distribution ~what:"synthetic" sub in
  Alcotest.(check bool) "mass defect flagged" false (Pwcet.Audit.ok r2);
  let good = Prob.Dist.of_points [ (0, 0.25); (5, 0.75) ] in
  Alcotest.(check bool) "good distribution passes" true
    (Pwcet.Audit.ok (Pwcet.Audit.check_distribution good));
  let fmm =
    Pwcet.Fmm.of_table ~config:small_config ~mechanism:M.No_protection
      (Array.make 8 (Array.make 3 0))
  in
  Alcotest.(check bool) "zero fmm passes" true (Pwcet.Audit.ok (Pwcet.Audit.check_fmm fmm))

let () =
  Alcotest.run "robust"
    [ ( "units",
        [ Alcotest.test_case "error taxonomy" `Quick test_error_roundtrip
        ; Alcotest.test_case "budget validation" `Quick test_budget_validation
        ; Alcotest.test_case "budget monotonic clock" `Quick test_budget_monotonic_clock
        ; Alcotest.test_case "rung order" `Quick test_rung_order
        ] )
    ; ( "solver ladder",
        [ Alcotest.test_case "solve_within exhausts" `Quick test_solve_within_exhausts
        ; Alcotest.test_case "solve_within deadline" `Quick test_solve_within_deadline
        ; Alcotest.test_case "bounded_objective ladder" `Quick test_bounded_objective_ladder
        ; Alcotest.test_case "bounded_objective infeasible" `Quick
            test_bounded_objective_infeasible
        ; Alcotest.test_case "fixpoint divergence" `Quick test_fixpoint_divergence
        ] )
    ; ("validation", [ Alcotest.test_case "NaN rejection" `Quick test_nan_rejection ])
    ; ( "degradation",
        [ Alcotest.test_case "fmm deadline fallback" `Quick test_fmm_deadline_fallback
        ; Alcotest.test_case "fmm provenance round-trip" `Quick
            test_worker_crash_isolation_in_fmm
        ] )
    ; ( "properties",
        [ wcet_ladder_dominates; fmm_ladder_dominates; starved_estimate_sound ] )
    ; ( "audit",
        [ Alcotest.test_case "real estimates pass" `Quick test_audit_passes_on_real_estimates
        ; Alcotest.test_case "flags an unsound FMM" `Quick test_audit_flags_unsound_fmm
        ; Alcotest.test_case "bad artefacts flagged" `Quick test_audit_flags_bad_artefacts
        ] )
    ]
