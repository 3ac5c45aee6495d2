(* Tests for the tree-based loop-collapse engine on hand-crafted
   assembly CFGs where the exact longest-path value can be computed by
   hand, plus cross-checks against the ILP engine. *)

open Isa
module PE = Ipet.Path_engine

let ins i = Program.Ins i
let label l = Program.Label l

let build ?(bounds = []) items =
  let p = Program.assemble { src_functions = [ ("main", items) ]; src_bounds = bounds } in
  let g = Cfg.Graph.build p in
  let loops = Cfg.Loop.detect g in
  (g, loops)

(* Cost model: every node costs its instruction count (cost 1 per
   instruction) unless overridden. *)
let longest ?(node_cost = fun g u -> (Cfg.Graph.node g u).Cfg.Graph.len) ?(one_shots = [])
    (g, loops) =
  PE.longest ~graph:g ~loops ~node_cost:(node_cost g) ~one_shots

let test_straightline () =
  let gl = build [ ins Instr.Nop; ins Instr.Nop; ins Instr.Halt ] in
  Alcotest.(check int) "3 instructions" 3 (longest gl)

let test_diamond_takes_heavier_arm () =
  let gl =
    build
      [ ins (Instr.Beqz (Instr.Eq, Reg.t0, "else"))   (* 1 *)
      ; ins Instr.Nop; ins Instr.Nop; ins Instr.Nop   (* then: 3 + j *)
      ; ins (Instr.J "join")
      ; label "else"
      ; ins Instr.Nop                                  (* else: 1 *)
      ; label "join"
      ; ins Instr.Halt                                 (* 1 *)
      ]
  in
  (* branch(1) + then(4 incl. jump) + join(1) = 6 *)
  Alcotest.(check int) "heavier arm" 6 (longest gl)

let test_simple_loop () =
  let gl =
    build
      ~bounds:[ ("loop", 10) ]
      [ ins Instr.Nop                                   (* preheader: 1 *)
      ; label "loop"
      ; ins (Instr.Beqz (Instr.Eq, Reg.t0, "done"))     (* header: 1 *)
      ; ins Instr.Nop; ins Instr.Nop                    (* body: 3 incl. jump *)
      ; ins (Instr.J "loop")
      ; label "done"
      ; ins Instr.Halt                                  (* 1 *)
      ]
  in
  (* pre(1) + 10 * (header 1 + body 3) + final header(1) + halt(1) = 43 *)
  Alcotest.(check int) "loop cost" 43 (longest gl)

let test_zero_bound_loop () =
  let gl =
    build
      ~bounds:[ ("loop", 0) ]
      [ label "loop"
      ; ins (Instr.Beqz (Instr.Eq, Reg.t0, "done"))
      ; ins Instr.Nop
      ; ins (Instr.J "loop")
      ; label "done"
      ; ins Instr.Halt
      ]
  in
  (* 0 iterations: header(1) + halt(1). *)
  Alcotest.(check int) "no iterations" 2 (longest gl)

let test_nested_loops_multiply () =
  let gl =
    build
      ~bounds:[ ("outer", 5); ("inner", 7) ]
      [ label "outer"
      ; ins (Instr.Beqz (Instr.Eq, Reg.t0, "exit"))    (* outer header: 1 *)
      ; label "inner"
      ; ins (Instr.Beqz (Instr.Eq, Reg.t1, "after"))   (* inner header: 1 *)
      ; ins Instr.Nop                                   (* inner body: 2 incl. jump *)
      ; ins (Instr.J "inner")
      ; label "after"
      ; ins (Instr.J "outer")                           (* back to outer: 1 *)
      ; label "exit"
      ; ins Instr.Halt                                  (* 1 *)
      ]
  in
  (* inner collapsed: 7*(1+2) + 1 = 22; one outer iteration:
     header(1) + inner(22) + back(1) = 24; total: 5*24 + exit pass
     (header 1) + halt 1 = 122. *)
  Alcotest.(check int) "nested" 122 (longest gl)

let test_loop_exit_from_body () =
  (* The body can leave the loop directly (like a return): C_exit must
     include the deep in-body path. *)
  let gl =
    build
      ~bounds:[ ("loop", 4) ]
      [ label "loop"
      ; ins (Instr.Beqz (Instr.Eq, Reg.t0, "done"))    (* header: 1 *)
      ; ins Instr.Nop; ins Instr.Nop                    (* body1: 3 *)
      ; ins (Instr.Beqz (Instr.Eq, Reg.t1, "done"))    (* mid-exit *)
      ; ins Instr.Nop
      ; ins (Instr.J "loop")                            (* body2: 2 *)
      ; label "done"
      ; ins Instr.Halt
      ]
  in
  (* iteration: 1 + 3 + 2 = 6; C_exit = max(header 1, header+body1 = 4);
     4 iterations * 6 + 4 + 1 = 29. *)
  Alcotest.(check int) "exit from body" 29 (longest gl)

let test_one_shot_global () =
  let gl = build [ ins Instr.Nop; ins Instr.Halt ] in
  Alcotest.(check int) "global one-shot" 12
    (longest ~one_shots:[ (PE.Whole_program, 10) ] gl)

let test_one_shot_loop_scope () =
  let gl =
    build
      ~bounds:[ ("outer", 3); ("inner", 4) ]
      [ label "outer"
      ; ins (Instr.Beqz (Instr.Eq, Reg.t0, "exit"))
      ; label "inner"
      ; ins (Instr.Beqz (Instr.Eq, Reg.t1, "after"))
      ; ins (Instr.J "inner")
      ; label "after"
      ; ins (Instr.J "outer")
      ; label "exit"
      ; ins Instr.Halt
      ]
  in
  let base = longest gl in
  let g, loops = gl in
  let inner_header =
    (* The inner loop is the one whose body is smaller. *)
    (List.hd
       (List.sort
          (fun (a : Cfg.Loop.loop) b ->
            compare (List.length a.Cfg.Loop.body) (List.length b.Cfg.Loop.body))
          loops))
      .Cfg.Loop.header
  in
  let outer_header =
    (List.hd
       (List.sort
          (fun (a : Cfg.Loop.loop) b ->
            compare (List.length b.Cfg.Loop.body) (List.length a.Cfg.Loop.body))
          loops))
      .Cfg.Loop.header
  in
  (* A one-shot scoped to the inner loop is paid once per inner-loop
     entry = 3 times (once per outer iteration); scoped to the outer
     loop, once. *)
  Alcotest.(check int) "inner scope x3" (base + 30)
    (longest ~one_shots:[ (PE.Loop_scope inner_header, 10) ] gl);
  Alcotest.(check int) "outer scope x1" (base + 10)
    (longest ~one_shots:[ (PE.Loop_scope outer_header, 10) ] gl);
  ignore g

let test_against_ilp_on_benchmarks () =
  (* On real benchmark CFGs, the two engines agree tightly (the path
     engine never undercuts, and the slack stays within the scoped
     one-shot conservatism). *)
  let config = Cache.Config.paper_default in
  List.iter
    (fun name ->
      let entry = Option.get (Benchmarks.Registry.find name) in
      let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
      let graph = Cfg.Graph.build compiled.Minic.Compile.program in
      let loops = Cfg.Loop.detect graph in
      let chmc = Cache_analysis.Chmc.analyze ~graph ~loops ~config () in
      let path = (Ipet.Wcet.compute ~graph ~loops ~chmc ~config ~engine:`Path ()).Ipet.Wcet.wcet in
      let ilp = (Ipet.Wcet.compute ~graph ~loops ~chmc ~config ~engine:`Ilp ()).Ipet.Wcet.wcet in
      Alcotest.(check bool)
        (Printf.sprintf "%s: path %d vs ilp %d" name path ilp)
        true
        (path >= ilp && path <= ilp + (ilp / 20) + 200))
    [ "fibcall"; "bs"; "crc"; "insertsort"; "cnt"; "prime" ]

(* --- plan/eval against the per-call collapse ------------------------------ *)

(* A random query on [graph]: node costs (sparse, like the FMM's delta
   queries, or dense, like a WCET), and one-shots scoped to the whole
   program, to loop headers, to nodes that head no loop, and to ids
   outside the graph. *)
let random_query st ~graph ~loops =
  let n = Cfg.Graph.node_count graph in
  let sparse = Random.State.bool st in
  let costs =
    Array.init n (fun _ ->
        if sparse && Random.State.int st 4 > 0 then 0 else Random.State.int st 50)
  in
  let headers = Array.of_list (List.map (fun (l : Cfg.Loop.loop) -> l.Cfg.Loop.header) loops) in
  let scope () =
    match Random.State.int st 4 with
    | 0 -> PE.Whole_program
    | 1 when Array.length headers > 0 ->
      PE.Loop_scope headers.(Random.State.int st (Array.length headers))
    | 2 -> PE.Loop_scope (Random.State.int st n)
    | _ -> PE.Loop_scope (n + Random.State.int st 5)
  in
  let one_shots = List.init (Random.State.int st 6) (fun _ -> (scope (), Random.State.int st 20)) in
  (costs, one_shots)

let reference ~graph ~loops (costs, one_shots) =
  Oracle.Path_engine.longest ~graph ~loops ~node_cost:(fun u -> costs.(u)) ~one_shots

let evaluate plan (costs, one_shots) = PE.eval plan ~node_cost:(fun u -> costs.(u)) ~one_shots

let plan_eval_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"eval (plan g) = per-call collapse"
       QCheck2.Gen.(pair Minic_gen.gen_program (int_bound 1_000_000))
       (fun (program, seed) ->
         match Minic.Compile.compile program with
         | exception Minic.Typecheck.Error _ -> true
         | compiled ->
           let graph = Cfg.Graph.build compiled.Minic.Compile.program in
           let loops = Cfg.Loop.detect graph in
           let plan = PE.plan ~graph ~loops in
           let st = Random.State.make [| seed |] in
           (* Several queries per plan: no state may leak between them. *)
           List.for_all
             (fun query -> evaluate plan query = reference ~graph ~loops query)
             (List.init 4 (fun _ -> random_query st ~graph ~loops))))

let test_negative_node_cost () =
  let graph, loops = build [ ins Instr.Nop; ins Instr.Halt ] in
  let plan = PE.plan ~graph ~loops in
  Alcotest.check_raises "negative node cost"
    (Invalid_argument "Path_engine.eval: negative node cost") (fun () ->
      ignore (PE.eval plan ~node_cost:(fun _ -> -1) ~one_shots:[]))

let test_negative_one_shot () =
  let graph, loops =
    build
      ~bounds:[ ("loop", 3) ]
      [ label "loop"
      ; ins (Instr.Beqz (Instr.Eq, Reg.t0, "done"))
      ; ins (Instr.J "loop")
      ; label "done"
      ; ins Instr.Halt
      ]
  in
  let plan = PE.plan ~graph ~loops in
  Alcotest.check_raises "negative one-shot"
    (Invalid_argument "Path_engine.eval: negative one-shot") (fun () ->
      ignore (PE.eval plan ~node_cost:(fun _ -> 1) ~one_shots:[ (PE.Whole_program, -1) ]))

(* One plan evaluated from two domains at once gives the sequential
   answers: [eval] writes only its own scratch arrays. *)
let test_shared_plan_across_domains () =
  let entry = Option.get (Benchmarks.Registry.find "adpcm") in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let graph = Cfg.Graph.build compiled.Minic.Compile.program in
  let loops = Cfg.Loop.detect graph in
  let plan = PE.plan ~graph ~loops in
  let st = Random.State.make [| 19 |] in
  let queries = Array.init 64 (fun _ -> random_query st ~graph ~loops) in
  let sequential = Array.map (evaluate plan) queries in
  Alcotest.(check (array int))
    "= reference" (Array.map (reference ~graph ~loops) queries) sequential;
  Alcotest.(check (array int)) "2 domains" sequential
    (Parallel.Pool.map ~jobs:2 (evaluate plan) queries)

(* --- registry identity ------------------------------------------------------

   Every FMM cell, provenance rung and recorded error (through
   [Fmm.to_wire]) and the fault-free WCET of every registry program, at
   three geometries and for every mechanism, folded into one MD5. The
   constant was computed with the per-query loop-collapse engine, before
   the path engine was split into [plan] and [eval]; any change to
   either the engine or the FMM row loop that moves a single cell fails
   here. *)
let registry_fmm_wcet_digest = "ec517da4309d25c502fd5783a3a67eb2"

let test_registry_fmm_wcet_identity () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (sets, ways) ->
      let config = Cache.Config.make ~sets ~ways ~line_bytes:16 () in
      List.iter
        (fun (e : Benchmarks.Registry.entry) ->
          let compiled = Minic.Compile.compile e.Benchmarks.Registry.program in
          let task = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
          Printf.bprintf buf "%s %dx%d wcet %d\n" e.Benchmarks.Registry.name sets ways
            (Pwcet.Estimator.fault_free_wcet task);
          List.iter
            (fun (mechanism, fmm) ->
              Printf.bprintf buf "%s %dx%d %s %s\n" e.Benchmarks.Registry.name sets ways
                (Pwcet.Mechanism.short_name mechanism)
                (Digest.to_hex (Digest.string (Pwcet.Fmm.to_wire fmm))))
            (Pwcet.Estimator.fmm_grid task ~mechanisms:Pwcet.Mechanism.all ()))
        Benchmarks.Registry.all)
    [ (8, 2); (16, 4); (32, 4) ];
  Alcotest.(check string) "registry FMM/WCET digest" registry_fmm_wcet_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "path_engine"
    [ ( "hand-crafted graphs",
        [ Alcotest.test_case "straightline" `Quick test_straightline
        ; Alcotest.test_case "diamond" `Quick test_diamond_takes_heavier_arm
        ; Alcotest.test_case "simple loop" `Quick test_simple_loop
        ; Alcotest.test_case "zero bound" `Quick test_zero_bound_loop
        ; Alcotest.test_case "nested loops" `Quick test_nested_loops_multiply
        ; Alcotest.test_case "exit from body" `Quick test_loop_exit_from_body
        ] )
    ; ( "one-shots",
        [ Alcotest.test_case "global" `Quick test_one_shot_global
        ; Alcotest.test_case "loop scoped" `Quick test_one_shot_loop_scope
        ] )
    ; ( "vs ilp",
        [ Alcotest.test_case "benchmark CFGs" `Quick test_against_ilp_on_benchmarks ] )
    ; ( "plan and eval",
        [ plan_eval_prop
        ; Alcotest.test_case "negative node cost" `Quick test_negative_node_cost
        ; Alcotest.test_case "negative one-shot" `Quick test_negative_one_shot
        ; Alcotest.test_case "one plan, two domains" `Quick test_shared_plan_across_domains
        ] )
    ; ( "registry identity",
        [ Alcotest.test_case "FMM and WCET digest" `Quick test_registry_fmm_wcet_identity ] )
    ]
