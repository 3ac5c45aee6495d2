(* Tests for the refined SRB analysis (the paper's future-work
   direction): sub-probability distributions, the exclusive SRB
   classification, dominance over the conservative bound, and pathwise
   soundness against the concrete SRB simulator. *)

module C = Cache.Config
module FM = Oracle.Fault_map
module D = Prob.Dist
module Chmc = Cache_analysis.Chmc
module Srb_an = Cache_analysis.Srb_analysis

let config = C.paper_default
let target = 1e-15

(* --- sub-probability distributions -------------------------------------- *)

let test_sub_points () =
  let d = D.of_sub_points [ (0, 0.5); (10, 0.25) ] in
  Alcotest.(check (float 1e-12)) "mass" 0.75 (D.total_mass d);
  Alcotest.(check (float 1e-12)) "exceedance" 0.25 (D.exceedance d 0);
  (match D.of_sub_points [ (0, 0.9); (1, 0.2) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mass > 1 must be rejected")

let test_scale () =
  let d = D.of_points [ (0, 0.5); (10, 0.5) ] in
  let half = D.scale 0.5 d in
  Alcotest.(check (float 1e-12)) "mass halved" 0.5 (D.total_mass half);
  Alcotest.(check (float 1e-12)) "exceedance halved" 0.25 (D.exceedance half 0);
  let zero = D.scale 0.0 d in
  Alcotest.(check int) "factor 0 empties" 0 (D.size zero)

let test_sub_convolution_multiplies_mass () =
  let a = D.of_sub_points [ (0, 0.5) ] in
  let b = D.of_sub_points [ (3, 0.4) ] in
  let c = D.convolve a b in
  Alcotest.(check (float 1e-12)) "mass product" 0.2 (D.total_mass c);
  Alcotest.(check (list (pair int (float 1e-12)))) "support" [ (3, 0.2) ] (D.support c)

(* --- exclusive SRB classification ----------------------------------------- *)

let tiny_loop =
  let open Minic.Dsl in
  program
    [ fn "main" []
        [ decl "s" (i 0); for_ "k" (i 0) (i 20) [ set "s" (v "s" +: v "k") ]; ret (v "s") ]
    ]

let test_exclusive_dominates_conservative () =
  (* Exclusive analysis classifies at least everything the conservative
     one does (fewer clobbering references). *)
  let compiled = Minic.Compile.compile tiny_loop in
  let graph = Cfg.Graph.build compiled.Minic.Compile.program in
  let conservative = Srb_an.analyze ~graph ~config () in
  for set = 0 to config.C.sets - 1 do
    let exclusive = Srb_an.analyze_exclusive ~graph ~config ~sets:[ set ] () in
    Array.iter
      (fun u ->
        let node = Cfg.Graph.node graph u in
        List.iteri
          (fun k addr ->
            if C.set_of_address config addr = set then
              if Srb_an.always_hit conservative ~node:u ~offset:k then
                Alcotest.(check bool) "exclusive keeps conservative hits" true
                  (Srb_an.always_hit exclusive ~node:u ~offset:k))
          (Cfg.Graph.addresses graph node))
      (Cfg.Graph.reverse_postorder graph)
  done

let test_exclusive_recovers_temporal_locality () =
  (* A block re-fetched at separated points within one loop iteration
     (jfdctint's inner loops re-enter the same code): exclusively, the
     buffer survives the interleaved fetches to other sets, so the
     re-fetch is a hit — strictly more AH than the conservative
     analysis, which loses the buffer to every interleaved fetch.
     (Cross-iteration reuse stays unclassified in both: the Must join at
     the loop header discards it — a persistence-style SRB analysis
     could recover it; see the module documentation.) *)
  let entry = Option.get (Benchmarks.Registry.find "jfdctint") in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let graph = Cfg.Graph.build compiled.Minic.Compile.program in
  let conservative = Srb_an.analyze ~graph ~config () in
  let improved = ref false in
  for set = 0 to config.C.sets - 1 do
    let exclusive = Srb_an.analyze_exclusive ~graph ~config ~sets:[ set ] () in
    Array.iter
      (fun u ->
        let node = Cfg.Graph.node graph u in
        List.iteri
          (fun k addr ->
            if
              C.set_of_address config addr = set
              && Srb_an.always_hit exclusive ~node:u ~offset:k
              && not (Srb_an.always_hit conservative ~node:u ~offset:k)
            then improved := true)
          (Cfg.Graph.addresses graph node))
      (Cfg.Graph.reverse_postorder graph)
  done;
  Alcotest.(check bool) "strictly more hits somewhere" true !improved

(* --- refined estimator ------------------------------------------------------- *)

let prepare name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
  (compiled, task)

let refined_of task ~pbf =
  Pwcet.Srb_refined.compute ~graph:task.Pwcet.Estimator.graph
    ~loops:task.Pwcet.Estimator.loops ~config ~pbf ()

let test_never_worse_than_conservative () =
  List.iter
    (fun name ->
      let _, task = prepare name in
      List.iter
        (fun pfail ->
          let pbf = Fault.Model.pbf_of_config ~pfail config in
          let srb =
            Pwcet.Estimator.estimate task ~pfail
              ~mechanism:Pwcet.Mechanism.Shared_reliable_buffer ()
          in
          let refined = refined_of task ~pbf in
          List.iter
            (fun tgt ->
              let q_cons = Prob.Dist.quantile (Pwcet.Estimator.penalty srb) ~target:tgt in
              let q_ref = Pwcet.Srb_refined.quantile refined ~target:tgt in
              Alcotest.(check bool)
                (Printf.sprintf "%s pfail=%g target=%g: %d <= %d" name pfail tgt q_ref q_cons)
                true (q_ref <= q_cons))
            [ 1e-15; 1e-12; 1e-9 ])
        [ 1e-4; 1e-5 ])
    [ "fibcall"; "crc"; "jfdctint" ]

let test_improves_in_single_dead_regime () =
  (* At pfail = 1e-5, two simultaneous dead sets are below the 1e-15
     target, so the exclusive analysis shows real gains on benchmarks
     with per-set temporal locality. *)
  let _, task = prepare "jfdctint" in
  let pfail = 1e-5 in
  let pbf = Fault.Model.pbf_of_config ~pfail config in
  let srb =
    Pwcet.Estimator.estimate task ~pfail ~mechanism:Pwcet.Mechanism.Shared_reliable_buffer ()
  in
  let refined = refined_of task ~pbf in
  Alcotest.(check bool) "strict improvement" true
    (Pwcet.Srb_refined.quantile refined ~target
    < Prob.Dist.quantile (Pwcet.Estimator.penalty srb) ~target)

let test_exceedance_decreasing () =
  let _, task = prepare "fibcall" in
  let pbf = Fault.Model.pbf_of_config ~pfail:1e-4 config in
  let refined = refined_of task ~pbf in
  let prev = ref 2.0 in
  for x = 0 to 100 do
    let p = Pwcet.Srb_refined.exceedance refined (x * 100) in
    Alcotest.(check bool) "monotone" true (p <= !prev +. 1e-15);
    prev := p
  done

(* Pathwise soundness: a map with exactly one dead set obeys the D=1
   bound; a map with exactly two dead sets obeys the D=2 bound. *)
let test_pathwise_single_dead () =
  let compiled, task = prepare "crc" in
  let graph = task.Pwcet.Estimator.graph and loops = task.Pwcet.Estimator.loops in
  let ff = Pwcet.Estimator.fault_free_wcet task in
  let pbf = Fault.Model.pbf_of_config ~pfail:1e-4 config in
  let refined = refined_of task ~pbf in
  let excl = Pwcet.Srb_refined.exclusive_dead_set_misses refined in
  let fmm_none =
    snd
      (List.hd
         (Pwcet.Fmm.compute_multi ~graph ~loops ~config
            ~mechanisms:[ Pwcet.Mechanism.No_protection ] ()))
  in
  let penalty = C.miss_penalty config in
  let state = Random.State.make [| 55 |] in
  for _ = 1 to 8 do
    let dead = Random.State.int state config.C.sets in
    (* Dead set plus random partial faults elsewhere. *)
    let counts =
      Array.init config.C.sets (fun s ->
          if s = dead then config.C.ways else Random.State.int state config.C.ways)
    in
    let fm = FM.of_faulty_counts config counts in
    let sim = Oracle.Reliable.Srb.create ~fault_map:fm config in
    let cyc =
      (Oracle.Machine.run_compiled ~fetch:(Oracle.Reliable.Srb.latency_oracle sim) compiled)
        .Oracle.Machine.cycles
    in
    let bound = ref (ff + (excl.(dead) * penalty)) in
    Array.iteri
      (fun s f ->
        if s <> dead then
          bound := !bound + (Pwcet.Fmm.misses fmm_none ~set:s ~faulty:f * penalty))
      counts;
    Alcotest.(check bool)
      (Printf.sprintf "dead=%d: %d <= %d" dead cyc !bound)
      true (cyc <= !bound)
  done

let test_pathwise_dead_pair () =
  let compiled, task = prepare "fibcall" in
  let graph = task.Pwcet.Estimator.graph and loops = task.Pwcet.Estimator.loops in
  let ff = Pwcet.Estimator.fault_free_wcet task in
  let baseline = task.Pwcet.Estimator.chmc in
  let fmm_none =
    snd
      (List.hd
         (Pwcet.Fmm.compute_multi ~graph ~loops ~config
            ~mechanisms:[ Pwcet.Mechanism.No_protection ] ()))
  in
  let penalty = C.miss_penalty config in
  let pair_misses s1 s2 =
    let srb = Srb_an.analyze_exclusive ~graph ~config ~sets:[ s1; s2 ] () in
    let degraded ~node ~offset =
      if Srb_an.always_hit srb ~node ~offset then Chmc.Always_hit else Chmc.Always_miss
    in
    Ipet.Delta.extra_misses ~graph ~loops ~config ~baseline ~degraded ~sets:[ s1; s2 ] ()
  in
  let state = Random.State.make [| 56 |] in
  for _ = 1 to 6 do
    let s1 = Random.State.int state config.C.sets in
    let s2 = (s1 + 1 + Random.State.int state (config.C.sets - 1)) mod config.C.sets in
    let counts =
      Array.init config.C.sets (fun s ->
          if s = s1 || s = s2 then config.C.ways else Random.State.int state config.C.ways)
    in
    let fm = FM.of_faulty_counts config counts in
    let sim = Oracle.Reliable.Srb.create ~fault_map:fm config in
    let cyc =
      (Oracle.Machine.run_compiled ~fetch:(Oracle.Reliable.Srb.latency_oracle sim) compiled)
        .Oracle.Machine.cycles
    in
    let bound = ref (ff + (pair_misses (min s1 s2) (max s1 s2) * penalty)) in
    Array.iteri
      (fun s f ->
        if s <> s1 && s <> s2 then
          bound := !bound + (Pwcet.Fmm.misses fmm_none ~set:s ~faulty:f * penalty))
      counts;
    Alcotest.(check bool)
      (Printf.sprintf "pair=(%d,%d): %d <= %d" s1 s2 cyc !bound)
      true (cyc <= !bound)
  done

(* Statistical soundness at an aggressive pbf, where all terms matter. *)
let test_monte_carlo_soundness () =
  let compiled, task = prepare "fibcall" in
  let ff = Pwcet.Estimator.fault_free_wcet task in
  let pbf = 0.15 in
  let refined =
    Pwcet.Srb_refined.compute ~graph:task.Pwcet.Estimator.graph
      ~loops:task.Pwcet.Estimator.loops ~config ~pbf ()
  in
  let state = Random.State.make [| 57 |] in
  let n = 3000 in
  let samples =
    Array.init n (fun _ ->
        let fm = FM.sample config ~pbf state in
        let sim = Oracle.Reliable.Srb.create ~fault_map:fm config in
        (Oracle.Machine.run_compiled ~fetch:(Oracle.Reliable.Srb.latency_oracle sim) compiled)
          .Oracle.Machine.cycles)
  in
  List.iter
    (fun x ->
      let emp =
        float_of_int (Array.fold_left (fun acc c -> if c - ff > x then acc + 1 else acc) 0 samples)
        /. float_of_int n
      in
      let analytic = Pwcet.Srb_refined.exceedance refined x in
      let sigma = sqrt (Float.max 1e-9 (analytic *. (1.0 -. analytic) /. float_of_int n)) in
      Alcotest.(check bool)
        (Printf.sprintf "x=%d emp=%.4f analytic=%.4f" x emp analytic)
        true
        (emp <= analytic +. (4.5 *. sigma) +. 1e-9))
    [ 0; 99; 500; 1000; 2000; 4000 ]

let () =
  Alcotest.run "srb_refined"
    [ ( "sub-distributions",
        [ Alcotest.test_case "of_sub_points" `Quick test_sub_points
        ; Alcotest.test_case "scale" `Quick test_scale
        ; Alcotest.test_case "mass product" `Quick test_sub_convolution_multiplies_mass
        ] )
    ; ( "exclusive analysis",
        [ Alcotest.test_case "dominates conservative" `Quick test_exclusive_dominates_conservative
        ; Alcotest.test_case "recovers temporal locality" `Quick
            test_exclusive_recovers_temporal_locality
        ] )
    ; ( "refined estimator",
        [ Alcotest.test_case "never worse" `Quick test_never_worse_than_conservative
        ; Alcotest.test_case "improves when D<=1 dominates" `Quick
            test_improves_in_single_dead_regime
        ; Alcotest.test_case "exceedance decreasing" `Quick test_exceedance_decreasing
        ] )
    ; ( "soundness",
        [ Alcotest.test_case "single dead set" `Quick test_pathwise_single_dead
        ; Alcotest.test_case "dead pair" `Quick test_pathwise_dead_pair
        ; Alcotest.test_case "monte carlo" `Slow test_monte_carlo_soundness
        ] )
    ]
