(* Tests for the IPET layer: WCET bounds vs concrete simulation
   (equality on single-path programs, domination in general), loop-bound
   sensitivity, and the fault-induced miss deltas. *)

module C = Cache.Config
module Chmc = Cache_analysis.Chmc

let config = C.paper_default

let prepare prog =
  let compiled = Minic.Compile.compile prog in
  let graph = Cfg.Graph.build compiled.Minic.Compile.program in
  let loops = Cfg.Loop.detect graph in
  let chmc = Chmc.analyze ~graph ~loops ~config () in
  (compiled, graph, loops, chmc)

let wcet_of ?(engine = `Path) ?(exact = false) prog =
  let compiled, graph, loops, chmc = prepare prog in
  let r = Ipet.Wcet.compute ~graph ~loops ~chmc ~config ~engine ~exact () in
  (compiled, r.Ipet.Wcet.wcet)

let simulate ?fault_map compiled =
  let sim = Oracle.Lru.create ?fault_map config in
  (Oracle.Machine.run_compiled ~fetch:(Oracle.Lru.latency_oracle sim) compiled)
    .Oracle.Machine.cycles

(* --- fault-free WCET ----------------------------------------------------- *)

let test_straightline_exact () =
  let open Minic.Dsl in
  let prog = program [ fn "main" [] [ decl "x" (i 1); set "x" (v "x" +: i 2); ret (v "x") ] ] in
  (* Single path, no loop: both engines must equal the execution. *)
  let compiled, wcet_path = wcet_of ~engine:`Path prog in
  let _, wcet_ilp = wcet_of ~engine:`Ilp prog in
  let sim = simulate compiled in
  Alcotest.(check int) "path = simulation" sim wcet_path;
  Alcotest.(check int) "ilp = simulation" sim wcet_ilp

let test_single_path_loop_exact () =
  let open Minic.Dsl in
  let prog =
    program
      [ fn "main" []
          [ decl "s" (i 0); for_ "k" (i 0) (i 25) [ set "s" (v "s" +: v "k") ]; ret (v "s") ]
      ]
  in
  let compiled, wcet_path = wcet_of ~engine:`Path prog in
  let _, wcet_ilp = wcet_of ~engine:`Ilp prog in
  let sim = simulate compiled in
  Alcotest.(check int) "path = simulation" sim wcet_path;
  Alcotest.(check int) "ilp = simulation" sim wcet_ilp

let test_branches_dominate () =
  let open Minic.Dsl in
  (* Uneven branch: the analysis must take the heavier arm each time,
     while execution alternates. *)
  let heavy = List.init 30 (fun k -> set "s" (v "s" +: i k)) in
  let prog =
    program
      [ fn "main" []
          [ decl "s" (i 0)
          ; for_ "k" (i 0) (i 10)
              [ if_ (v "k" %: i 2 ==: i 0) heavy [ set "s" (v "s" +: i 1) ] ]
          ; ret (v "s")
          ]
      ]
  in
  let compiled, wcet = wcet_of prog in
  let sim = simulate compiled in
  Alcotest.(check bool) "dominates" true (wcet >= sim);
  (* Taking the heavy arm only half the time means the bound is
     noticeably above the simulation. *)
  Alcotest.(check bool) "strictly above" true (wcet > sim)

let test_calls_dominate () =
  let open Minic.Dsl in
  let prog =
    program
      [ fn "main" []
          [ decl "s" (i 0)
          ; for_ "k" (i 0) (i 12) [ set "s" (v "s" +: call "f" [ v "k" ]) ]
          ; ret (v "s")
          ]
      ; fn "f" [ "x" ] [ if_ (v "x" >: i 5) [ ret (v "x" *: i 2) ] [ ret (v "x" +: i 1) ] ]
      ]
  in
  let compiled, wcet = wcet_of prog in
  Alcotest.(check bool) "dominates" true (wcet >= simulate compiled)

let test_loop_bound_scaling () =
  let open Minic.Dsl in
  let make n =
    program
      [ fn "main" []
          [ decl "s" (i 0); for_ "k" (i 0) (i n) [ set "s" (v "s" +: v "k") ]; ret (v "s") ]
      ]
  in
  let _, w10 = wcet_of (make 10) in
  let _, w20 = wcet_of (make 20) in
  let _, w40 = wcet_of (make 40) in
  (* Per-iteration cost is constant once the loop is warm: WCET is
     affine in the bound, so the 20->40 jump is twice the 10->20 one. *)
  Alcotest.(check int) "linear in bound" (2 * (w20 - w10)) (w40 - w20);
  Alcotest.(check bool) "monotone" true (w10 < w20 && w20 < w40)

let test_engines_agree () =
  let open Minic.Dsl in
  let prog =
    program
      [ fn "main" []
          [ decl "s" (i 0)
          ; for_ "k" (i 0) (i 7)
              [ if_ (v "k" >: i 3) [ set "s" (v "s" +: i 2) ] [ set "s" (v "s" -: i 1) ] ]
          ; ret (v "s")
          ]
      ]
  in
  let compiled, relaxed = wcet_of ~engine:`Ilp ~exact:false prog in
  let _, exact = wcet_of ~engine:`Ilp ~exact:true prog in
  let _, path = wcet_of ~engine:`Path prog in
  Alcotest.(check int) "integral relaxation" exact relaxed;
  (* Both engines dominate the simulation; the path engine may charge a
     scoped first-miss the ILP can prove unreachable on the worst path,
     so allow a few cycles of headroom — never more. *)
  let sim = simulate compiled in
  Alcotest.(check bool) "path sound" true (path >= sim);
  Alcotest.(check bool) "ilp sound" true (exact >= sim);
  Alcotest.(check bool) "engines within a few cycles" true (path >= exact && path - exact <= 8)

(* --- deltas (FMM entries) ------------------------------------------------- *)

let delta_for prog ~set ~working =
  let _, graph, loops, baseline = prepare prog in
  let degraded_chmc =
    Chmc.analyze ~graph ~loops ~config
      ~assoc:(fun s -> if s = set then working else config.C.ways)
      ~only_sets:[ set ] ()
  in
  let degraded ~node ~offset = Chmc.classification degraded_chmc ~node ~offset in
  Ipet.Delta.extra_misses ~graph ~loops ~config ~baseline ~degraded ~sets:[ set ] ()

let loop_prog =
  let open Minic.Dsl in
  program
    [ fn "main" []
        [ decl "s" (i 0); for_ "k" (i 0) (i 30) [ set "s" (v "s" +: v "k") ]; ret (v "s") ]
    ]

let test_delta_zero_when_no_faults () =
  for set = 0 to config.C.sets - 1 do
    Alcotest.(check int) "f=0 -> no extra misses" 0 (delta_for loop_prog ~set ~working:config.C.ways)
  done

let test_delta_monotone_in_faults () =
  for set = 0 to config.C.sets - 1 do
    let prev = ref 0 in
    for f = 1 to config.C.ways do
      let d = delta_for loop_prog ~set ~working:(config.C.ways - f) in
      Alcotest.(check bool) (Printf.sprintf "set %d f %d monotone" set f) true (d >= !prev);
      prev := d
    done
  done

let test_delta_dead_set_counts_loop_blocks () =
  (* A dead set turns loop-resident lines into per-iteration misses:
     with 30 iterations the delta for an affected set must be large. *)
  let total_dead =
    List.init config.C.sets (fun set -> delta_for loop_prog ~set ~working:0)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check bool) "loop blocks dominate" true (total_dead > 30)

(* The central decomposition: faulty execution time is bounded by the
   fault-free WCET plus the per-set deltas of the actual fault counts. *)
let check_decomposition prog fault_counts =
  let compiled, graph, loops, baseline = prepare prog in
  let wcet_ff =
    (Ipet.Wcet.compute ~graph ~loops ~chmc:baseline ~config ()).Ipet.Wcet.wcet
  in
  let penalty_bound =
    Array.to_list (Array.mapi (fun set f -> (set, f)) fault_counts)
    |> List.fold_left
         (fun acc (set, f) ->
           if f = 0 then acc
           else acc + (delta_for prog ~set ~working:(config.C.ways - f) * C.miss_penalty config))
         0
  in
  let fm = Oracle.Fault_map.of_faulty_counts config fault_counts in
  let cycles = simulate ~fault_map:fm compiled in
  Alcotest.(check bool)
    (Printf.sprintf "cycles %d <= wcet %d + penalty %d" cycles wcet_ff penalty_bound)
    true
    (cycles <= wcet_ff + penalty_bound)

let test_decomposition_soundness () =
  let state = Random.State.make [| 99 |] in
  let progs =
    let open Minic.Dsl in
    [ loop_prog
    ; program
        [ fn "main" []
            [ decl "s" (i 0)
            ; for_ "k" (i 0) (i 9) [ set "s" (v "s" +: call "f" [ v "k" ]) ]
            ; ret (v "s")
            ]
        ; fn "f" [ "x" ] [ ret (v "x" *: v "x") ]
        ]
    ]
  in
  List.iter
    (fun prog ->
      for _ = 1 to 5 do
        let fc = Array.init config.C.sets (fun _ -> Random.State.int state 5) in
        check_decomposition prog fc
      done;
      check_decomposition prog (Array.make config.C.sets 4);
      check_decomposition prog (Array.make config.C.sets 0))
    progs

let () =
  Alcotest.run "ipet"
    [ ( "wcet",
        [ Alcotest.test_case "straightline exact" `Quick test_straightline_exact
        ; Alcotest.test_case "single-path loop exact" `Quick test_single_path_loop_exact
        ; Alcotest.test_case "branches dominate" `Quick test_branches_dominate
        ; Alcotest.test_case "calls dominate" `Quick test_calls_dominate
        ; Alcotest.test_case "loop bound scaling" `Quick test_loop_bound_scaling
        ; Alcotest.test_case "engines agree" `Quick test_engines_agree
        ] )
    ; ( "delta",
        [ Alcotest.test_case "no faults, no delta" `Quick test_delta_zero_when_no_faults
        ; Alcotest.test_case "monotone in faults" `Quick test_delta_monotone_in_faults
        ; Alcotest.test_case "dead set" `Quick test_delta_dead_set_counts_loop_blocks
        ] )
    ; ( "soundness",
        [ Alcotest.test_case "decomposition bound" `Quick test_decomposition_soundness ] )
    ]
