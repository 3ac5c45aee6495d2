(* Ablations of three design choices called out in DESIGN.md, on the
   paper's geometry (16 sets x 4 ways x 16 B, pfail 1e-4, target 1e-15):

     1. the tree-based path engine vs the exact ILP for the WCET bound;
     2. the persistence (first-miss) analysis, turned off so that every
        first-miss reference is costed as always-miss;
     3. the convolution support cap: capping must only move the quantile
        up (conservative), and this shows by how much.

     dune exec bench/main.exe

   Every other result of the paper's evaluation has its own command;
   EXPERIMENTS.md names each one. *)

let config = Cache.Config.paper_default
let pfail = 1e-4
let target = 1e-15

let task_cache : (string, Pwcet.Estimator.task) Hashtbl.t = Hashtbl.create 8

let task_of name =
  match Hashtbl.find_opt task_cache name with
  | Some t -> t
  | None ->
    let entry = Option.get (Benchmarks.Registry.find name) in
    let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
    let t = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
    Hashtbl.add task_cache name t;
    t

let subset = [ "fibcall"; "bs"; "crc"; "insertsort"; "cnt"; "prime"; "expint" ]

let wcet task engine =
  (Ipet.Wcet.compute ~graph:task.Pwcet.Estimator.graph ~loops:task.Pwcet.Estimator.loops
     ~chmc:task.Pwcet.Estimator.chmc ~config ~engine ())
    .Ipet.Wcet.wcet

let engine_ablation () =
  Printf.printf "1. WCET engine: tree-based path engine vs exact-rational ILP\n\n";
  Printf.printf "  %-12s %12s %12s %9s\n" "benchmark" "path" "ilp" "path/ilp";
  List.iter
    (fun name ->
      let task = task_of name in
      let path = wcet task `Path and ilp = wcet task `Ilp in
      Printf.printf "  %-12s %12d %12d %9.4f\n" name path ilp
        (float_of_int path /. float_of_int ilp))
    subset

let persistence_ablation () =
  Printf.printf
    "\n2. Persistence analysis off (first-miss references costed as always-miss)\n\n";
  Printf.printf "  %-12s %12s %12s %9s\n" "benchmark" "with FM" "without FM" "inflation";
  List.iter
    (fun name ->
      let task = task_of name in
      let graph = task.Pwcet.Estimator.graph and chmc = task.Pwcet.Estimator.chmc in
      let with_fm = wcet task `Path in
      (* Recost by hand with the path engine: AH keeps the hit latency,
         everything else (including FM) pays a miss per execution. *)
      let reachable = Array.make (Cfg.Graph.node_count graph) false in
      Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
      let node_cost u =
        if not reachable.(u) then 0
        else begin
          let node = Cfg.Graph.node graph u in
          let cost = ref 0 in
          for k = 0 to node.Cfg.Graph.len - 1 do
            cost :=
              !cost
              +
              match Cache_analysis.Chmc.classification chmc ~node:u ~offset:k with
              | Cache_analysis.Chmc.Always_hit -> config.Cache.Config.hit_latency
              | _ -> config.Cache.Config.miss_latency
          done;
          !cost
        end
      in
      let without_fm =
        Ipet.Path_engine.longest ~graph ~loops:task.Pwcet.Estimator.loops ~node_cost
          ~one_shots:[]
      in
      Printf.printf "  %-12s %12d %12d %8.2fx\n" name with_fm without_fm
        (float_of_int without_fm /. float_of_int with_fm))
    subset

let cap_ablation () =
  Printf.printf "\n3. Convolution support cap (penalty points kept per convolution step)\n\n";
  let task = task_of "adpcm" in
  let est = Pwcet.Estimator.estimate task ~pfail ~mechanism:Pwcet.Mechanism.No_protection () in
  let fmm = est.Pwcet.Estimator.fmm and pbf = est.Pwcet.Estimator.pbf in
  Printf.printf "  %-12s %14s %14s\n" "max_points" "pWCET(1e-15)" "support size";
  List.iter
    (fun max_points ->
      let d = Pwcet.Penalty.total_distribution ~max_points ~fmm ~pbf () in
      Printf.printf "  %-12d %14d %14d\n" max_points
        (Pwcet.Estimator.fault_free_wcet task + Prob.Dist.quantile d ~target)
        (Prob.Dist.size d))
    [ 16; 64; 256; 65536 ]

let () =
  Printf.printf "=== Ablations (adpcm and a small-program subset, 16x4x16) ===\n\n";
  engine_ablation ();
  persistence_ablation ();
  cap_ablation ()
