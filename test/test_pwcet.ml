(* Tests for the paper's core contribution: the FMM, the penalty
   distributions (including the Fig. 1 worked example), the pWCET
   estimator for the three hardware configurations, and end-to-end
   soundness of the pWCET bound against concrete faulty execution. *)

module C = Cache.Config
module FM = Oracle.Fault_map
module M = Pwcet.Mechanism
module Fmm = Pwcet.Fmm
module Est = Pwcet.Estimator
module D = Prob.Dist

let config = C.paper_default
let pfail = 1e-4
let target = 1e-15

(* --- Fig. 1 worked example ------------------------------------------------ *)

(* A 4-set, 2-way cache with the paper's example FMM (Fig. 1a):
   set 0: 10/130, set 1: 14/164, set 2: 13/193, set 3: 20/240.
   miss penalty 1 so the distribution is in miss units like the figure. *)
let fig1_config = C.make ~sets:4 ~ways:2 ~line_bytes:16 ~hit_latency:1 ~miss_latency:2 ()

let fig1_fmm mechanism =
  Fmm.of_table ~config:fig1_config ~mechanism
    [| [| 0; 10; 130 |]; [| 0; 14; 164 |]; [| 0; 13; 193 |]; [| 0; 20; 240 |] |]

let test_fig1_set_distributions () =
  let fmm = fig1_fmm M.No_protection in
  let pbf = 0.1 in
  let d0 = Pwcet.Penalty.set_distribution ~fmm ~pbf ~set:0 () in
  (* Three points: 0, 10, 130 with binomial(2, 0.1) probabilities. *)
  Alcotest.(check (list (pair int (float 1e-12))))
    "set 0 points"
    [ (0, 0.81); (10, 0.18); (130, 0.01) ]
    (D.support d0)

let test_fig1_convolution () =
  let fmm = fig1_fmm M.No_protection in
  let pbf = 0.1 in
  let d0 = Pwcet.Penalty.set_distribution ~fmm ~pbf ~set:0 () in
  let d1 = Pwcet.Penalty.set_distribution ~fmm ~pbf ~set:1 () in
  let both = D.convolve d0 d1 in
  (* 3 x 3 = 9 distinct sums. *)
  Alcotest.(check (list int)) "penalties of set 0+1"
    [ 0; 10; 14; 24; 130; 144; 164; 174; 294 ]
    (List.map fst (D.support both));
  (* P(0) = pwf(0)^2 for independent sets. *)
  (match D.support both with
  | (0, p) :: _ -> Alcotest.(check (float 1e-12)) "P(0)" (0.81 *. 0.81) p
  | _ -> Alcotest.fail "missing 0 point");
  Alcotest.(check (float 1e-12)) "mass" 1.0 (D.total_mass both)

let test_fig1_rw_removes_top_point () =
  (* Paper Section III-B.1: under RW the set-0 distribution keeps only
     the points 0 and 10. *)
  let fmm = fig1_fmm M.Reliable_way in
  let d0 = Pwcet.Penalty.set_distribution ~fmm ~pbf:0.1 ~set:0 () in
  Alcotest.(check (list int)) "two points" [ 0; 10 ] (List.map fst (D.support d0));
  (match D.support d0 with
  | [ (0, p0); (10, p1) ] ->
    Alcotest.(check (float 1e-12)) "pwf_rw(0)" 0.9 p0;
    Alcotest.(check (float 1e-12)) "pwf_rw(1)" 0.1 p1
  | _ -> Alcotest.fail "bad support")

(* --- FMM computation -------------------------------------------------------- *)

let loop_prog =
  let open Minic.Dsl in
  program
    [ fn "main" []
        [ decl "s" (i 0); for_ "k" (i 0) (i 40) [ set "s" (v "s" +: v "k") ]; ret (v "s") ]
    ]

let prepare prog =
  let compiled = Minic.Compile.compile prog in
  let task = Est.prepare ~program:compiled.Minic.Compile.program ~config () in
  (compiled, task)

let compute_fmm task mechanism =
  Fmm.compute ~graph:task.Est.graph ~loops:task.Est.loops ~config ~mechanism ()

let test_fmm_monotone_rows () =
  let _, task = prepare loop_prog in
  let fmm = compute_fmm task M.No_protection in
  for set = 0 to config.C.sets - 1 do
    for f = 1 to config.C.ways do
      Alcotest.(check bool) "monotone" true
        (Fmm.misses fmm ~set ~faulty:f >= Fmm.misses fmm ~set ~faulty:(f - 1))
    done
  done

let test_fmm_zero_column () =
  let _, task = prepare loop_prog in
  let fmm = compute_fmm task M.No_protection in
  for set = 0 to config.C.sets - 1 do
    Alcotest.(check int) "f=0 is 0" 0 (Fmm.misses fmm ~set ~faulty:0)
  done

let test_fmm_srb_shrinks_last_column () =
  let _, task = prepare loop_prog in
  let plain = compute_fmm task M.No_protection in
  let srb = compute_fmm task M.Shared_reliable_buffer in
  let shrunk = ref false in
  for set = 0 to config.C.sets - 1 do
    let a = Fmm.misses plain ~set ~faulty:config.C.ways in
    let b = Fmm.misses srb ~set ~faulty:config.C.ways in
    Alcotest.(check bool) "never larger" true (b <= a);
    if b < a then shrunk := true;
    (* Columns below W are identical: the SRB only affects dead sets. *)
    for f = 0 to config.C.ways - 1 do
      Alcotest.(check int) "same below W" (Fmm.misses plain ~set ~faulty:f)
        (Fmm.misses srb ~set ~faulty:f)
    done
  done;
  Alcotest.(check bool) "srb removes misses somewhere" true !shrunk

let test_fmm_rw_matches_plain_below_w () =
  let _, task = prepare loop_prog in
  let plain = compute_fmm task M.No_protection in
  let rw = compute_fmm task M.Reliable_way in
  for set = 0 to config.C.sets - 1 do
    for f = 0 to config.C.ways - 1 do
      Alcotest.(check int) "same" (Fmm.misses plain ~set ~faulty:f) (Fmm.misses rw ~set ~faulty:f)
    done
  done

(* --- estimator ordering ------------------------------------------------------ *)

let benchmark_programs =
  let open Minic.Dsl in
  [ ( "tiny-loop", loop_prog )
  ; ( "calls",
      program
        [ fn "main" []
            [ decl "s" (i 0)
            ; for_ "k" (i 0) (i 16) [ set "s" (v "s" +: call "f" [ v "k" ]) ]
            ; ret (v "s")
            ]
        ; fn "f" [ "x" ] [ if_ (v "x" >: i 7) [ ret (v "x" *: i 3) ] [ ret (v "x") ] ]
        ] )
  ; ( "bigger",
      program
        ~globals:[ array_n "t" 16 (fun k -> k) ]
        [ fn "main" []
            [ decl "s" (i 0)
            ; for_ "r" (i 0) (i 4)
                [ for_ "k" (i 0) (i 16) [ set "s" (v "s" +: idx "t" (v "k")) ] ]
            ; ret (v "s")
            ]
        ] )
  ]

let estimates prog =
  let _, task = prepare prog in
  let est mech = Est.estimate task ~pfail ~mechanism:mech () in
  (task, est M.No_protection, est M.Shared_reliable_buffer, est M.Reliable_way)

let test_pwcet_ordering () =
  List.iter
    (fun (name, prog) ->
      let task, none, srb, rw = estimates prog in
      let p_none = Est.pwcet none ~target in
      let p_srb = Est.pwcet srb ~target in
      let p_rw = Est.pwcet rw ~target in
      let ff = Est.fault_free_wcet task in
      Alcotest.(check bool) (name ^ ": ff <= rw") true (ff <= p_rw);
      Alcotest.(check bool) (name ^ ": rw <= srb") true (p_rw <= p_srb);
      Alcotest.(check bool) (name ^ ": srb <= none") true (p_srb <= p_none))
    benchmark_programs

let test_exceedance_curves_ordered () =
  let _, none, srb, rw = estimates loop_prog in
  (* At every probed value, the no-protection curve lies above. *)
  let probes = List.map fst (Est.exceedance_curve none) in
  let exceed est x =
    (* P(WCET > x) = P(penalty > x - wcet_ff) *)
    D.exceedance (Est.penalty est) (x - Est.fault_free_wcet est.Est.task)
  in
  List.iter
    (fun x ->
      Alcotest.(check bool) "rw <= srb" true (exceed rw x <= exceed srb x +. 1e-18);
      Alcotest.(check bool) "srb <= none" true (exceed srb x <= exceed none x +. 1e-18))
    probes

let test_pwcet_decreases_with_target () =
  let _, none, _, _ = estimates loop_prog in
  let p a = Est.pwcet none ~target:a in
  Alcotest.(check bool) "monotone in target" true
    (p 1e-15 >= p 1e-9 && p 1e-9 >= p 1e-3 && p 1e-3 >= p 0.5)

let test_pfail_zero_means_fault_free () =
  let _, task = prepare loop_prog in
  let est = Est.estimate task ~pfail:0.0 ~mechanism:M.No_protection () in
  Alcotest.(check int) "no faults, no penalty" (Est.fault_free_wcet task)
    (Est.pwcet est ~target)

let test_pwcet_grows_with_pfail () =
  let _, task = prepare loop_prog in
  let p pf = Est.pwcet (Est.estimate task ~pfail:pf ~mechanism:M.No_protection ()) ~target in
  Alcotest.(check bool) "monotone in pfail" true (p 1e-6 <= p 1e-4 && p 1e-4 <= p 1e-2)

(* --- end-to-end soundness ------------------------------------------------------ *)

(* For sampled fault maps, the concrete faulty execution must stay below
   wcet_ff + sum_s FMM[s][f_s] * penalty, for each mechanism with its
   own simulator. This is the pointwise inequality behind the pWCET
   distribution's soundness. *)
let check_concrete_bound prog =
  let compiled, task = prepare prog in
  let ff = Est.fault_free_wcet task in
  let penalty = C.miss_penalty config in
  let fmm_none = compute_fmm task M.No_protection in
  let fmm_srb = compute_fmm task M.Shared_reliable_buffer in
  let fmm_rw = compute_fmm task M.Reliable_way in
  let state = Random.State.make [| 31337 |] in
  for _ = 1 to 15 do
    (* Over-sampled pbf so interesting fault patterns appear. *)
    let fm = FM.sample config ~pbf:0.3 state in
    let counts = FM.faulty_counts fm in
    let bound fmm counts =
      let total = ref ff in
      Array.iteri (fun s f -> total := !total + (Fmm.misses fmm ~set:s ~faulty:f * penalty)) counts;
      !total
    in
    (* No protection. *)
    let sim = Oracle.Lru.create ~fault_map:fm config in
    let cyc =
      (Oracle.Machine.run_compiled ~fetch:(Oracle.Lru.latency_oracle sim) compiled)
        .Oracle.Machine.cycles
    in
    Alcotest.(check bool) "none bound" true (cyc <= bound fmm_none counts);
    (* RW: effective faults exclude the reliable way. *)
    let rw_sim = Oracle.Reliable.rw_cache ~fault_map:fm config in
    let rw_counts = FM.faulty_counts (FM.mask_way fm ~way:0) in
    let cyc_rw =
      (Oracle.Machine.run_compiled ~fetch:(Oracle.Lru.latency_oracle rw_sim) compiled)
        .Oracle.Machine.cycles
    in
    Alcotest.(check bool) "rw bound" true (cyc_rw <= bound fmm_rw rw_counts);
    (* SRB. *)
    let srb_sim = Oracle.Reliable.Srb.create ~fault_map:fm config in
    let cyc_srb =
      (Oracle.Machine.run_compiled ~fetch:(Oracle.Reliable.Srb.latency_oracle srb_sim) compiled)
        .Oracle.Machine.cycles
    in
    Alcotest.(check bool) "srb bound" true (cyc_srb <= bound fmm_srb counts)
  done

let test_concrete_bound_all_programs () =
  List.iter (fun (_, prog) -> check_concrete_bound prog) benchmark_programs

(* Monte-Carlo agreement: sampling way counts from eq. 2 and summing FMM
   penalties reproduces the analytic exceedance curve. *)
let test_monte_carlo_matches_analytic () =
  let _, task = prepare loop_prog in
  let est = Est.estimate task ~pfail:3e-3 ~mechanism:M.No_protection () in
  let fmm = est.Est.fmm in
  let pbf = est.Est.pbf in
  let penalty = C.miss_penalty config in
  let state = Random.State.make [| 7171 |] in
  let pmf = Fault.Model.way_distribution ~ways:config.C.ways ~pbf in
  let draw () =
    let u = Random.State.float state 1.0 in
    let rec go w acc =
      if w >= config.C.ways then config.C.ways
      else begin
        let acc = acc +. pmf.(w) in
        if u < acc then w else go (w + 1) acc
      end
    in
    go 0 0.0
  in
  let n = 20000 in
  let samples =
    Array.init n (fun _ ->
        let total = ref 0 in
        for s = 0 to config.C.sets - 1 do
          total := !total + (Fmm.misses fmm ~set:s ~faulty:(draw ()) * penalty)
        done;
        !total)
  in
  (* Compare empirical and analytic exceedance at the analytic median-ish
     points; tolerance ~4 sigma of the binomial proportion. *)
  List.iter
    (fun (x, _) ->
      let analytic = D.exceedance (Est.penalty est) x in
      if analytic > 0.005 && analytic < 0.995 then begin
        let count = Array.fold_left (fun acc v -> if v > x then acc + 1 else acc) 0 samples in
        let empirical = float_of_int count /. float_of_int n in
        let sigma = sqrt (analytic *. (1.0 -. analytic) /. float_of_int n) in
        Alcotest.(check bool)
          (Printf.sprintf "x=%d analytic=%.4f empirical=%.4f" x analytic empirical)
          true
          (Float.abs (analytic -. empirical) <= (4.5 *. sigma) +. 1e-9)
      end)
    (D.support (Est.penalty est))

(* --- report data ------------------------------------------------------------- *)

let test_report_gains () =
  let row =
    { Pwcet.Report_data.name = "x"; wcet_ff = 100; pwcet_none = 200; pwcet_srb = 150; pwcet_rw = 120 }
  in
  Alcotest.(check (float 1e-12)) "srb gain" 0.25 (Pwcet.Report_data.gain_srb row);
  Alcotest.(check (float 1e-12)) "rw gain" 0.40 (Pwcet.Report_data.gain_rw row);
  let ff, srb, rw = Pwcet.Report_data.normalized row in
  Alcotest.(check (float 1e-12)) "norm ff" 0.5 ff;
  Alcotest.(check (float 1e-12)) "norm srb" 0.75 srb;
  Alcotest.(check (float 1e-12)) "norm rw" 0.6 rw

let test_report_categories () =
  let mk ff srb rw = { Pwcet.Report_data.name = "x"; wcet_ff = ff; pwcet_none = 1000; pwcet_srb = srb; pwcet_rw = rw } in
  Alcotest.(check int) "cat 1" 1 (Pwcet.Report_data.category (mk 500 500 500));
  Alcotest.(check int) "cat 2" 2 (Pwcet.Report_data.category (mk 500 700 500));
  Alcotest.(check int) "cat 3" 3 (Pwcet.Report_data.category (mk 500 701 700));
  Alcotest.(check int) "cat 4" 4 (Pwcet.Report_data.category (mk 500 800 600))

let test_report_aggregates () =
  let rows =
    [ { Pwcet.Report_data.name = "a"; wcet_ff = 1; pwcet_none = 100; pwcet_srb = 80; pwcet_rw = 60 }
    ; { Pwcet.Report_data.name = "b"; wcet_ff = 1; pwcet_none = 100; pwcet_srb = 60; pwcet_rw = 40 }
    ]
  in
  let rw, srb = Pwcet.Report_data.average_gains rows in
  Alcotest.(check (float 1e-12)) "avg rw" 0.5 rw;
  Alcotest.(check (float 1e-12)) "avg srb" 0.3 srb;
  let name, g = Pwcet.Report_data.min_gain rows Pwcet.Report_data.gain_rw in
  Alcotest.(check string) "min rw benchmark" "a" name;
  Alcotest.(check (float 1e-12)) "min rw gain" 0.4 g

(* --- zero-row skipping ----------------------------------------------------- *)

(* Sets the program never touches have all-zero FMM rows and contribute
   the identity distribution; total_distribution skips them. The result
   must equal the unskipped convolution over every set exactly. *)
let test_total_distribution_skips_zero_rows () =
  let sparse_config = C.make ~sets:8 ~ways:2 ~line_bytes:16 () in
  let table =
    Array.init 8 (fun s ->
        if s = 2 then [| 0; 10; 130 |] else if s = 5 then [| 0; 14; 164 |] else [| 0; 0; 0 |])
  in
  List.iter
    (fun mechanism ->
      let fmm = Fmm.of_table ~config:sparse_config ~mechanism table in
      let pbf = 0.1 in
      let skipped = Pwcet.Penalty.total_distribution ~fmm ~pbf () in
      let unskipped =
        D.convolve_all
          (List.init 8 (fun set -> Pwcet.Penalty.set_distribution ~fmm ~pbf ~set ()))
      in
      Alcotest.(check (list (pair int (float 0.))))
        ("support identical, " ^ M.name mechanism)
        (D.support unskipped) (D.support skipped))
    M.all

let () =
  Alcotest.run "pwcet"
    [ ( "fig1 worked example",
        [ Alcotest.test_case "set distributions" `Quick test_fig1_set_distributions
        ; Alcotest.test_case "convolution" `Quick test_fig1_convolution
        ; Alcotest.test_case "RW removes top point" `Quick test_fig1_rw_removes_top_point
        ] )
    ; ( "fmm",
        [ Alcotest.test_case "monotone rows" `Quick test_fmm_monotone_rows
        ; Alcotest.test_case "zero column" `Quick test_fmm_zero_column
        ; Alcotest.test_case "srb shrinks last column" `Quick test_fmm_srb_shrinks_last_column
        ; Alcotest.test_case "rw matches below W" `Quick test_fmm_rw_matches_plain_below_w
        ] )
    ; ( "estimator",
        [ Alcotest.test_case "mechanism ordering" `Quick test_pwcet_ordering
        ; Alcotest.test_case "curve ordering" `Quick test_exceedance_curves_ordered
        ; Alcotest.test_case "target monotone" `Quick test_pwcet_decreases_with_target
        ; Alcotest.test_case "pfail 0" `Quick test_pfail_zero_means_fault_free
        ; Alcotest.test_case "pfail monotone" `Quick test_pwcet_grows_with_pfail
        ] )
    ; ( "soundness",
        [ Alcotest.test_case "concrete faulty runs bounded" `Quick test_concrete_bound_all_programs
        ; Alcotest.test_case "monte carlo vs analytic" `Quick test_monte_carlo_matches_analytic
        ] )
    ; ( "penalty",
        [ Alcotest.test_case "zero rows skipped" `Quick test_total_distribution_skips_zero_rows ] )
    ; ( "report",
        [ Alcotest.test_case "gains" `Quick test_report_gains
        ; Alcotest.test_case "categories" `Quick test_report_categories
        ; Alcotest.test_case "aggregates" `Quick test_report_aggregates
        ] )
    ]
