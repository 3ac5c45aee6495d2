(* Benchmark harness: regenerates every data-bearing table and figure of
   the paper's evaluation (Section IV), then measures the performance of
   the analysis pipeline itself with Bechamel.

     dune exec bench/main.exe

   Sections:
     eqs. 1-3     the fault-model quantities of Section II-A
     Figure 1     the worked FMM + convolution example
     Figure 3     exceedance curves for adpcm (none / SRB / RW)
     Figure 4     normalised pWCETs for all 25 benchmarks, categorised
     IV-B text    average/minimum gains vs the paper's numbers
     geometry     Section IV-A's cache-configuration choice
     ablations    engine choice, persistence value, convolution capping
     future work  refined SRB analysis; data-cache transposition
     fmm-json     naive vs sliced FMM engines -> BENCH_fmm.json
     dist-json    distribution engines + pfail sweep -> BENCH_dist.json
     store-json   artifact-store cold/warm/uncached -> BENCH_store.json
     service-json analysis daemon cold/warm/concurrent -> BENCH_service.json
     sim-json     batched fault-injection campaigns + speedup -> BENCH_sim.json
     sched-json   sched campaign batched vs independent -> BENCH_sched.json
     grid-json    one-pass grid vs independent per-cell -> BENCH_grid.json
     bechamel     timing of each analysis stage *)

let config = Cache.Config.paper_default
let pfail = 1e-4
let target = 1e-15

(* -j/--jobs N: worker domains for the per-set fault analyses (results
   are identical for every value; only wall-clock changes). Validated
   like the CLI's --jobs: at least 1, capped at a sane maximum —
   thousands of domains would thrash the runtime far past any
   speedup. *)
let max_jobs = 256

let jobs =
  let rec scan = function
    | ("-j" | "--jobs") :: v :: _ -> (
      match int_of_string_opt v with
      | Some n when n >= 1 && n <= max_jobs -> n
      | Some n when n > max_jobs ->
        Printf.eprintf "-j %d exceeds the cap of %d; using %d\n" n max_jobs max_jobs;
        max_jobs
      | _ ->
        Printf.eprintf "bad -j value %s (need 1..%d); using 1\n" v max_jobs;
        1)
    | _ :: rest -> scan rest
    | [] -> min max_jobs (Parallel.Pool.default_jobs ())
  in
  scan (Array.to_list Sys.argv)

(* --only NAME: run a single section (the full harness regenerates every
   figure and takes minutes). *)
let known_sections =
  [ "equations"; "figure1"; "figure3"; "figure4"; "geometry"; "ablations"; "future-work";
    "data-cache"; "fmm-json"; "dist-json"; "store-json"; "service-json"; "sched-json";
    "sim-json"; "grid-json"; "bechamel" ]

let only =
  let rec scan = function
    | "--only" :: v :: _ -> Some v
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

(* An unknown --only name would silently run nothing — a CI pipeline
   grepping for "wrote BENCH_x.json" deserves a hard failure instead. *)
let () =
  match only with
  | Some w when not (List.mem w known_sections) ->
    Printf.eprintf "bench: unknown section %S (expected one of: %s)\n" w
      (String.concat ", " known_sections);
    exit 2
  | _ -> ()

let wanted name = match only with None -> true | Some w -> String.equal w name

let banner title =
  Printf.printf "\n=== %s %s\n\n" title (String.make (max 0 (66 - String.length title)) '=')

(* Stamped into the machine-readable BENCH_*.json emitters so archived
   results stay attributable to the code that produced them. A run on
   uncommitted changes is marked "-dirty": HEAD alone would credit the
   commit with code it does not contain. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    if line <> "unknown" && Sys.command "git diff --quiet HEAD -- 2>/dev/null" = 1 then
      line ^ "-dirty"
    else line
  with _ -> "unknown"

(* --- eqs. 1-3 ------------------------------------------------------------ *)

let section_equations () =
  banner "Fault model (paper Section II-A, eqs. 1-3)";
  let pbf = Fault.Model.pbf_of_config ~pfail config in
  Printf.printf "pfail = %g, block size K = %d bits\n" pfail (Cache.Config.block_bits config);
  Printf.printf "eq.1  pbf = 1-(1-pfail)^K = %.6f\n\n" pbf;
  let ways = config.Cache.Config.ways in
  let d2 = Fault.Model.way_distribution ~ways ~pbf in
  let d3 = Fault.Model.way_distribution_rw ~ways ~pbf in
  Printf.printf "w faulty ways   eq.2 pwf(w)     eq.3 pwf_rw(w)\n";
  for w = 0 to ways do
    Printf.printf "%6d          %.6e    %.6e\n" w d2.(w) d3.(w)
  done;
  Printf.printf "\nP(all %d ways faulty) = %.3e: above the %g target -> dead sets matter\n"
    ways d2.(ways) target

(* --- Figure 1 -------------------------------------------------------------- *)

let section_figure1 () =
  banner "Figure 1: worked FMM + penalty convolution example";
  let fig_config = Cache.Config.make ~sets:4 ~ways:2 ~line_bytes:16 ~miss_latency:2 () in
  let fmm =
    Pwcet.Fmm.of_table ~config:fig_config ~mechanism:Pwcet.Mechanism.No_protection
      [| [| 0; 10; 130 |]; [| 0; 14; 164 |]; [| 0; 13; 193 |]; [| 0; 20; 240 |] |]
  in
  Format.printf "%a@." Pwcet.Fmm.pp fmm;
  let pbf = 0.1 in
  let d0 = Pwcet.Penalty.set_distribution ~fmm ~pbf ~set:0 () in
  let d1 = Pwcet.Penalty.set_distribution ~fmm ~pbf ~set:1 () in
  let show name d =
    Printf.printf "%s: " name;
    List.iter (fun (x, p) -> Printf.printf "(%d, %.4f) " x p) (Prob.Dist.support d);
    print_newline ()
  in
  show "penalty(set 0)  " d0;
  show "penalty(set 1)  " d1;
  show "penalty(set 0+1)" (Prob.Dist.convolve d0 d1)

(* --- shared pipeline helpers ------------------------------------------------ *)

let task_cache : (string, Pwcet.Estimator.task) Hashtbl.t = Hashtbl.create 32

let task_of name =
  match Hashtbl.find_opt task_cache name with
  | Some t -> t
  | None ->
    let entry = Option.get (Benchmarks.Registry.find name) in
    let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
    let t = Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config () in
    Hashtbl.add task_cache name t;
    t

(* --- Figure 3 ---------------------------------------------------------------- *)

let section_figure3 () =
  banner "Figure 3: complementary cumulative pWCET distributions, adpcm";
  let task = task_of "adpcm" in
  let series =
    List.map
      (fun mechanism ->
        let est = Pwcet.Estimator.estimate task ~pfail ~mechanism ~jobs () in
        (Pwcet.Mechanism.short_name mechanism, Pwcet.Estimator.exceedance_curve est))
      Pwcet.Mechanism.all
  in
  (* Raw series data (the plottable reproduction artefact). *)
  List.iter
    (fun (name, points) ->
      Printf.printf "%s:" name;
      List.iteri
        (fun idx (x, p) -> if idx < 12 then Printf.printf " (%d, %.3e)" x p)
        points;
      if List.length points > 12 then
        Printf.printf " ... [%d points total]" (List.length points);
      print_newline ())
    series;
  print_newline ();
  print_string (Reporting.Ascii_plot.exceedance ~series ());
  let value name =
    let mech =
      List.find (fun m -> Pwcet.Mechanism.short_name m = name) Pwcet.Mechanism.all
    in
    Pwcet.Estimator.pwcet (Pwcet.Estimator.estimate task ~pfail ~mechanism:mech ~jobs ()) ~target
  in
  Printf.printf "\npWCET at %g: none %d, srb %d, rw %d (fault-free %d)\n" target (value "none")
    (value "srb") (value "rw")
    (Pwcet.Estimator.fault_free_wcet task)

(* --- Figure 4 ----------------------------------------------------------------- *)

let suite_rows () =
  List.map
    (fun (e : Benchmarks.Registry.entry) ->
      let task = task_of e.Benchmarks.Registry.name in
      let pwcet mechanism =
        Pwcet.Estimator.pwcet (Pwcet.Estimator.estimate task ~pfail ~mechanism ~jobs ()) ~target
      in
      {
        Pwcet.Report_data.name = e.Benchmarks.Registry.name;
        wcet_ff = Pwcet.Estimator.fault_free_wcet task;
        pwcet_none = pwcet Pwcet.Mechanism.No_protection;
        pwcet_srb = pwcet Pwcet.Mechanism.Shared_reliable_buffer;
        pwcet_rw = pwcet Pwcet.Mechanism.Reliable_way;
      })
    Benchmarks.Registry.all

let section_figure4 rows =
  banner "Figure 4: pWCET estimates normalised to no-protection (target 1e-15)";
  (* Grouped by behavioural category, as in the paper's presentation. *)
  let by_cat =
    List.stable_sort
      (fun a b -> compare (Pwcet.Report_data.category a) (Pwcet.Report_data.category b))
      rows
  in
  print_string (Reporting.Table.fig4 by_cat);
  Printf.printf "\nstacked view (bar = normalised pWCET; ff <= rw <= srb <= none = 1):\n\n";
  let bars =
    List.map
      (fun (r : Pwcet.Report_data.row) ->
        let ff, srb, rw = Pwcet.Report_data.normalized r in
        (r.Pwcet.Report_data.name, [ ("ff", ff); ("rw", rw); ("srb", srb) ]))
      by_cat
  in
  print_string (Reporting.Ascii_plot.bars ~rows:bars ())

let section_aggregates rows =
  banner "Section IV-B aggregates";
  print_string (Reporting.Table.aggregates rows)

(* --- Ablations -------------------------------------------------------------------- *)

(* Design choices called out in DESIGN.md, each quantified:
   1. path engine vs exact ILP for the WCET bound;
   2. the persistence (first-miss) analysis — disabled, every FM
      reference is costed as always-miss;
   3. the convolution support cap — aggressive capping must only move
      the quantile up (conservative), and by how much. *)
let section_ablations () =
  banner "Ablations";
  let subset = [ "fibcall"; "bs"; "crc"; "insertsort"; "cnt"; "prime"; "expint" ] in
  Printf.printf "1. WCET engine: tree-based path engine vs exact-rational ILP\n\n";
  Printf.printf "  %-12s %12s %12s %9s\n" "benchmark" "path" "ilp" "path/ilp";
  List.iter
    (fun name ->
      let task = task_of name in
      let graph = task.Pwcet.Estimator.graph
      and loops = task.Pwcet.Estimator.loops
      and chmc = task.Pwcet.Estimator.chmc in
      let path = (Ipet.Wcet.compute ~graph ~loops ~chmc ~config ~engine:`Path ()).Ipet.Wcet.wcet in
      let ilp = (Ipet.Wcet.compute ~graph ~loops ~chmc ~config ~engine:`Ilp ()).Ipet.Wcet.wcet in
      Printf.printf "  %-12s %12d %12d %9.4f\n" name path ilp
        (float_of_int path /. float_of_int ilp))
    subset;
  Printf.printf
    "\n2. Persistence analysis off (first-miss references costed as always-miss)\n\n";
  Printf.printf "  %-12s %12s %12s %9s\n" "benchmark" "with FM" "without FM" "inflation";
  List.iter
    (fun name ->
      let task = task_of name in
      let graph = task.Pwcet.Estimator.graph
      and loops = task.Pwcet.Estimator.loops
      and chmc = task.Pwcet.Estimator.chmc in
      let with_fm =
        (Ipet.Wcet.compute ~graph ~loops ~chmc ~config ~engine:`Path ()).Ipet.Wcet.wcet
      in
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
      let without_fm = Ipet.Path_engine.longest ~graph ~loops ~node_cost ~one_shots:[] in
      Printf.printf "  %-12s %12d %12d %8.2fx\n" name with_fm without_fm
        (float_of_int without_fm /. float_of_int with_fm))
    subset;
  Printf.printf "\n3. Convolution support cap (penalty points kept per convolution step)\n\n";
  let task = task_of "adpcm" in
  let est = Pwcet.Estimator.estimate task ~pfail ~mechanism:Pwcet.Mechanism.No_protection ~jobs () in
  let fmm = est.Pwcet.Estimator.fmm and pbf = est.Pwcet.Estimator.pbf in
  Printf.printf "  %-12s %14s %14s\n" "max_points" "pWCET(1e-15)" "support size";
  List.iter
    (fun max_points ->
      let d = Pwcet.Penalty.total_distribution ~max_points ~fmm ~pbf () in
      Printf.printf "  %-12d %14d %14d\n" max_points
        (Pwcet.Estimator.fault_free_wcet task + Prob.Dist.quantile d ~target)
        (Prob.Dist.size d))
    [ 16; 64; 256; 65536 ]

(* --- Configuration choice (paper Section IV-A) --------------------------------------- *)

(* The paper fixes 16 sets x 4 ways x 16 B because that configuration
   "is the one leading to the smallest pWCET in [1]". Reproduce the
   check: across 1 KB geometries, which one minimises the unprotected
   pWCET at the target probability? *)
let section_geometry () =
  banner "Configuration choice (Section IV-A): 1 KB geometries, no protection";
  let geometries = [ (64, 1); (32, 2); (16, 4); (8, 8) ] in
  let subset = [ "adpcm"; "crc"; "fft"; "matmult"; "qurt" ] in
  Printf.printf "  %-10s" "benchmark";
  List.iter (fun (s, w) -> Printf.printf " %8s" (Printf.sprintf "%dx%d" s w)) geometries;
  Printf.printf "   best\n";
  List.iter
    (fun name ->
      let entry = Option.get (Benchmarks.Registry.find name) in
      let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
      let values =
        List.map
          (fun (sets, ways) ->
            let cfg = Cache.Config.make ~sets ~ways ~line_bytes:16 () in
            let task =
              Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config:cfg ()
            in
            Pwcet.Estimator.pwcet
              (Pwcet.Estimator.estimate task ~pfail ~mechanism:Pwcet.Mechanism.No_protection ~jobs ())
              ~target)
          geometries
      in
      Printf.printf "  %-10s" name;
      List.iter (fun v -> Printf.printf " %8d" v) values;
      let best, _ =
        List.fold_left2
          (fun (bg, bv) g v -> if v < bv then (g, v) else (bg, bv))
          ((0, 0), max_int) geometries values
      in
      Printf.printf "   %dx%d\n" (fst best) (snd best))
    subset

(* --- Future work: refined SRB analysis --------------------------------------------- *)

(* Section VI of the paper: "a more precise pWCET estimation technique
   for the SRB could be devised to limit the conservatism of the
   proposed technique". Pwcet.Srb_refined implements one such technique
   (conditioning on the number of dead sets with exclusive-buffer
   analyses); this section quantifies it. The gains appear in the
   regime where at most one dead set matters at the target probability
   (P(two dead)^ ~ 8e-14 > 1e-15 at pfail 1e-4, so we also show
   pfail = 1e-5 where the refinement binds). *)
let section_future_work () =
  banner "Future work (paper Section VI): refined SRB analysis";
  Printf.printf "  %-10s %-8s %10s %10s %10s %8s\n" "benchmark" "pfail" "ff" "srb" "refined"
    "gain";
  List.iter
    (fun pfail ->
      let pbf = Fault.Model.pbf_of_config ~pfail config in
      List.iter
        (fun name ->
          let task = task_of name in
          let ff = Pwcet.Estimator.fault_free_wcet task in
          let srb =
            Pwcet.Estimator.estimate task ~pfail
              ~mechanism:Pwcet.Mechanism.Shared_reliable_buffer ~jobs ()
          in
          let refined =
            Pwcet.Srb_refined.compute ~graph:task.Pwcet.Estimator.graph
              ~loops:task.Pwcet.Estimator.loops ~config ~pbf ()
          in
          let q_srb = ff + Prob.Dist.quantile srb.Pwcet.Estimator.penalty ~target in
          let q_ref = ff + Pwcet.Srb_refined.quantile refined ~target in
          Printf.printf "  %-10s %-8g %10d %10d %10d %7.1f%%\n" name pfail ff q_srb q_ref
            (100.0 *. float_of_int (q_srb - q_ref) /. float_of_int q_srb))
        [ "fibcall"; "crc"; "matmult"; "jfdctint" ])
    [ 1e-4; 1e-5 ];
  Printf.printf
    "\nAt pfail 1e-4 the 1e-15 quantile is set by two simultaneously dead\n\
     sets whose blocks contend for the single buffer, which no analysis\n\
     precision can recover; at 1e-5 the single-dead-set terms dominate\n\
     and the exclusive-buffer analysis shows its gains.\n"

(* --- Future work: data cache -------------------------------------------------------- *)

(* The other Section-VI direction: "transpose the hardware and
   corresponding analyses to data caches". lib/dcache implements it; a
   second 1 KB 4-way cache serves the data segment (the stack lives in a
   scratchpad, stores are write-through/no-allocate). *)
let section_data_cache () =
  banner "Future work (paper Section VI): data-cache transposition";
  let dconfig = config in
  Printf.printf "  %-10s %10s %12s %12s %12s\n" "benchmark" "wcet I+D" "pwcet(n,n)" "pwcet(rw,rw)"
    "pwcet(s,s)";
  List.iter
    (fun name ->
      let entry = Option.get (Benchmarks.Registry.find name) in
      let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
      let task = Dcache.Destimator.prepare ~compiled ~iconfig:config ~dconfig () in
      let p imech dmech =
        Dcache.Destimator.pwcet (Dcache.Destimator.estimate task ~pfail ~imech ~dmech ~jobs ())
          ~target
      in
      Printf.printf "  %-10s %10d %12d %12d %12d\n" name task.Dcache.Destimator.wcet_ff
        (p Pwcet.Mechanism.No_protection Pwcet.Mechanism.No_protection)
        (p Pwcet.Mechanism.Reliable_way Pwcet.Mechanism.Reliable_way)
        (p Pwcet.Mechanism.Shared_reliable_buffer Pwcet.Mechanism.Shared_reliable_buffer))
    [ "fibcall"; "bs"; "crc"; "cnt"; "adpcm" ];
  Printf.printf
    "\nPrecise data references (global scalars, single-block arrays) are\n\
     classified like instruction fetches; multi-block array accesses are\n\
     conservatively costed as misses — the expected precision loss of\n\
     address-range analysis without value analysis.\n"

(* --- FMM engine comparison (machine-readable) --------------------------------- *)

(* Naive (whole-CFG re-analysis per (set, fault count)) vs sliced
   (per-set condensed fixpoints + saturation early-exit) FMM engines on
   the 64-set geometry, written to BENCH_fmm.json for tracking. Tables
   are asserted bit-identical before any timing is reported. *)
let section_fmm_json () =
  banner "FMM engine comparison (naive vs sliced) -> BENCH_fmm.json";
  let task = task_of "adpcm" in
  let graph = task.Pwcet.Estimator.graph and loops = task.Pwcet.Estimator.loops in
  let wide_config = Cache.Config.make ~sets:64 ~ways:4 ~line_bytes:16 () in
  let run ~impl ~jobs () =
    Pwcet.Fmm.compute ~graph ~loops ~config:wide_config
      ~mechanism:Pwcet.Mechanism.No_protection ~jobs ~impl ()
  in
  (* Best of three runs, after one warm-up that also yields the table. *)
  let time f =
    let result = f () in
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    (result, !best)
  in
  let naive, naive_s = time (run ~impl:`Naive ~jobs:1) in
  let sliced, sliced_s = time (run ~impl:`Sliced ~jobs:1) in
  let n_jobs = if jobs > 1 then jobs else 2 in
  let sliced_j, sliced_jobs_s = time (run ~impl:`Sliced ~jobs:n_jobs) in
  let identical =
    Pwcet.Fmm.table naive = Pwcet.Fmm.table sliced
    && Pwcet.Fmm.table naive = Pwcet.Fmm.table sliced_j
  in
  if not identical then failwith "fmm-json: naive and sliced tables differ";
  let speedup = naive_s /. sliced_s in
  Printf.printf "  naive  jobs=1 : %8.3f s\n" naive_s;
  Printf.printf "  sliced jobs=1 : %8.3f s   (%.2fx)\n" sliced_s speedup;
  Printf.printf "  sliced jobs=%d : %8.3f s   (%.2fx)\n" n_jobs sliced_jobs_s
    (naive_s /. sliced_jobs_s);
  Printf.printf "  tables identical: %b\n" identical;
  let oc = open_out "BENCH_fmm.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"git_commit\": %S,\n\
    \  \"benchmark\": \"adpcm\",\n\
    \  \"geometry\": { \"sets\": 64, \"ways\": 4, \"line_bytes\": 16 },\n\
    \  \"mechanism\": \"no_protection\",\n\
    \  \"engine\": \"path\",\n\
    \  \"runs\": \"best of 3\",\n\
    \  \"naive_s\": %.6f,\n\
    \  \"sliced_s\": %.6f,\n\
    \  \"sliced_jobs\": %d,\n\
    \  \"sliced_jobs_s\": %.6f,\n\
    \  \"speedup_sliced_vs_naive\": %.3f,\n\
    \  \"speedup_sliced_jobs_vs_naive\": %.3f,\n\
    \  \"tables_identical\": %b\n\
     }\n"
    (git_commit ()) naive_s sliced_s n_jobs sliced_jobs_s speedup (naive_s /. sliced_jobs_s)
    identical;
  close_out oc;
  Printf.printf "  wrote BENCH_fmm.json\n"

(* --- Distribution engine + sweep comparison (machine-readable) ------------------ *)

(* Two amortisations from the distribution-engine overhaul, quantified
   on the 64-set geometry and written to BENCH_dist.json:
     1. total-distribution stage: the grouped engine (shared way PMF,
        equal-row grouping, power convolution by squaring, merge kernel)
        vs the reference engine (per-set hash-table convolutions);
     2. a pfail sweep through Grid.run (FMM computed once) vs
        independent end-to-end estimates per grid point.
   Both comparisons assert equal pWCET tables before any timing is
   reported. *)
let section_dist_json () =
  banner "Distribution engine + sweep comparison -> BENCH_dist.json";
  let wide_config = Cache.Config.make ~sets:64 ~ways:4 ~line_bytes:16 () in
  let entry = Option.get (Benchmarks.Registry.find "adpcm") in
  let compiled = Minic.Compile.compile entry.Benchmarks.Registry.program in
  let task =
    Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config:wide_config ()
  in
  let time ?(reps = 3) f =
    let result = f () in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    (result, !best)
  in
  let targets = [ 1e-9; 1e-12; 1e-15; 1e-18 ] in
  (* 1. Total-distribution stage, reference vs grouped, same FMM. *)
  let mechanism = Pwcet.Mechanism.No_protection in
  let est = Pwcet.Estimator.estimate task ~pfail ~mechanism () in
  let fmm = est.Pwcet.Estimator.fmm and pbf = est.Pwcet.Estimator.pbf in
  let reference_d, reference_s =
    time (fun () -> Pwcet.Penalty.total_distribution ~impl:`Reference ~fmm ~pbf ())
  in
  let grouped_d, grouped_s =
    time (fun () -> Pwcet.Penalty.total_distribution ~impl:`Grouped ~fmm ~pbf ())
  in
  let dist_identical =
    List.for_all
      (fun target ->
        Prob.Dist.quantile reference_d ~target = Prob.Dist.quantile grouped_d ~target)
      targets
  in
  let dist_speedup = reference_s /. grouped_s in
  Printf.printf "  total distribution (%d sets, jobs=1):\n" wide_config.Cache.Config.sets;
  Printf.printf "    reference engine : %10.6f s\n" reference_s;
  Printf.printf "    grouped engine   : %10.6f s   (%.2fx)\n" grouped_s dist_speedup;
  (* 2. pfail sweep vs independent end-to-end runs. The sweep amortises
     everything pfail-independent — CFG/CHMC/fault-free WCET (prepare)
     and the FMM — so the honest baseline is what a user without sweep
     mode runs: the full pipeline once per grid point. *)
  let grid = [ 1e-8; 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1 ] in
  let prepare () =
    Pwcet.Estimator.prepare ~program:compiled.Minic.Compile.program ~config:wide_config ()
  in
  let spec =
    { Grid.benchmarks = [ ("adpcm", compiled.Minic.Compile.program) ];
      configs = [ wide_config ]; mechanisms = [ mechanism ]; pfail_grid = grid; targets;
      engine = `Path; exact = false; impl = `Sliced }
  in
  (* The sweep's estimates, in grid order, collected through [on_cell]
     (jobs:1, so cells complete in canonical order). *)
  let swept, sweep_s =
    time ~reps:2 (fun () ->
        let ests = ref [] in
        ignore (Grid.run ~on_cell:(fun _ est -> ests := est :: !ests) spec);
        List.rev !ests)
  in
  let independent, independent_s =
    time ~reps:2 (fun () ->
        List.map (fun pfail -> Pwcet.Estimator.estimate (prepare ()) ~pfail ~mechanism ()) grid)
  in
  let sweep_identical =
    List.for_all2
      (fun (a : Pwcet.Estimator.estimate) (b : Pwcet.Estimator.estimate) ->
        Prob.Dist.support a.Pwcet.Estimator.penalty = Prob.Dist.support b.Pwcet.Estimator.penalty
        && List.for_all
             (fun target ->
               Pwcet.Estimator.pwcet a ~target = Pwcet.Estimator.pwcet b ~target)
             targets)
      swept independent
  in
  let sweep_speedup = independent_s /. sweep_s in
  Printf.printf "  pfail sweep (%d points):\n" (List.length grid);
  Printf.printf "    independent runs : %10.6f s\n" independent_s;
  Printf.printf "    Grid.run sweep   : %10.6f s   (%.2fx)\n" sweep_s sweep_speedup;
  let identical = dist_identical && sweep_identical in
  Printf.printf "  tables identical: %b\n" identical;
  if not identical then failwith "dist-json: engines disagree on pWCET tables";
  let oc = open_out "BENCH_dist.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"benchmark\": \"adpcm\",\n\
    \  \"geometry\": { \"sets\": %d, \"ways\": %d, \"line_bytes\": %d },\n\
    \  \"mechanism\": \"no_protection\",\n\
    \  \"git_commit\": %S,\n\
    \  \"runs\": \"best of 3 (stage), best of 2 (sweep)\",\n\
    \  \"reference_total_dist_s\": %.6f,\n\
    \  \"grouped_total_dist_s\": %.6f,\n\
    \  \"speedup_grouped_vs_reference\": %.3f,\n\
    \  \"sweep_points\": %d,\n\
    \  \"sweep_s\": %.6f,\n\
    \  \"independent_s\": %.6f,\n\
    \  \"speedup_sweep_vs_independent\": %.3f,\n\
    \  \"tables_identical\": %b\n\
     }\n"
    wide_config.Cache.Config.sets wide_config.Cache.Config.ways
    wide_config.Cache.Config.line_bytes (git_commit ()) reference_s grouped_s dist_speedup
    (List.length grid) sweep_s independent_s sweep_speedup identical;
  close_out oc;
  Printf.printf "  wrote BENCH_dist.json\n"

(* --- Artifact-store cold/warm comparison (machine-readable) --------------------- *)

(* The crash-safe artifact store's value proposition, quantified: a
   warm-cache rerun (FMM tables, fault-free WCET and per-point penalty
   distributions all replayed from disk with integrity checks) vs a
   cold populate-the-cache run vs the uncached pipeline. pWCETs are
   asserted bit-identical across all three before any timing is
   reported — the cache must buy time, never change results. *)
let section_store_json () =
  banner "Artifact store cold/warm comparison -> BENCH_store.json";
  let wide_config = Cache.Config.make ~sets:64 ~ways:4 ~line_bytes:16 () in
  let entry = Option.get (Benchmarks.Registry.find "adpcm") in
  let program = (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program in
  let targets = [ 1e-9; 1e-12; 1e-15 ] in
  let run ?store () =
    let task = Pwcet.Estimator.prepare ~program ~config:wide_config ?store () in
    List.concat_map
      (fun mechanism ->
        let est = Pwcet.Estimator.estimate task ~pfail ~mechanism ?store () in
        List.map (fun target -> Pwcet.Estimator.pwcet est ~target) targets)
      Pwcet.Mechanism.all
  in
  let time ?(reps = 3) f =
    let result = f () in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    (result, !best)
  in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun name -> rm (Filename.concat path name)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pwcet_bench_store.%d" (Unix.getpid ()))
  in
  let uncached, uncached_s = time (fun () -> run ()) in
  (* Cold: every rep starts from an empty directory, so the measured
     time includes computing and atomically writing every artifact. *)
  let cold, cold_s =
    time (fun () ->
        rm dir;
        run ~store:(Store.Artifact.open_store ~dir ()) ())
  in
  let warm_store = Store.Artifact.open_store ~dir () in
  let warm, warm_s = time (fun () -> run ~store:warm_store ()) in
  let stats = Store.Artifact.stats warm_store in
  let identical = uncached = cold && cold = warm in
  rm dir;
  if not identical then failwith "store-json: cached and uncached pWCETs differ";
  Printf.printf "  uncached : %8.3f s\n" uncached_s;
  Printf.printf "  cold     : %8.3f s   (cache populated; %.2fx vs uncached)\n" cold_s
    (uncached_s /. cold_s);
  Printf.printf "  warm     : %8.3f s   (%.2fx vs uncached)\n" warm_s (uncached_s /. warm_s);
  Printf.printf "  pWCETs identical: %b\n" identical;
  let oc = open_out "BENCH_store.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"benchmark\": \"adpcm\",\n\
    \  \"geometry\": { \"sets\": %d, \"ways\": %d, \"line_bytes\": %d },\n\
    \  \"mechanisms\": [\"none\", \"srb\", \"rw\"],\n\
    \  \"git_commit\": %S,\n\
    \  \"runs\": \"best of 3\",\n\
    \  \"uncached_s\": %.6f,\n\
    \  \"cold_s\": %.6f,\n\
    \  \"warm_s\": %.6f,\n\
    \  \"speedup_warm_vs_uncached\": %.3f,\n\
    \  \"warm_hits\": %d,\n\
    \  \"warm_misses\": %d,\n\
    \  \"pwcets_identical\": %b\n\
     }\n"
    wide_config.Cache.Config.sets wide_config.Cache.Config.ways
    wide_config.Cache.Config.line_bytes (git_commit ()) uncached_s cold_s warm_s
    (uncached_s /. warm_s) stats.Store.Artifact.hits stats.Store.Artifact.misses identical;
  close_out oc;
  Printf.printf "  wrote BENCH_store.json\n"

(* --- Analysis daemon cold/warm/concurrent (machine-readable) -------------------- *)

(* The pWCET-as-a-service daemon, measured end to end over its own Unix
   socket: a cold sweep (every request computes and populates the
   store + prepared-task cache), the identical warm sweep (store
   replays, prepare skipped), a concurrent warm phase for throughput,
   and the dedup guarantee demonstrated live — K identical concurrent
   requests, exactly one computation. Latencies ride the monotonic
   clock ({!Robust.Budget.now}), the same scale the daemon's deadlines
   use. The headline acceptance number is speedup_warm_vs_cold_p95. *)
let section_service_json () =
  banner "Analysis daemon cold/warm/concurrent -> BENCH_service.json";
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun name -> rm (Filename.concat path name)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  let tmp = Filename.get_temp_dir_name () in
  let store_dir = Filename.concat tmp (Printf.sprintf "pwcet_bench_svc.%d" (Unix.getpid ())) in
  let socket = Filename.concat tmp (Printf.sprintf "pwcet_bench_svc.%d.sock" (Unix.getpid ())) in
  rm store_dir;
  (try Sys.remove socket with Sys_error _ -> ());
  let store = Store.Artifact.open_store ~dir:store_dir () in
  let domains = max 2 (min 4 jobs) in
  let scheduler =
    Service.Scheduler.create
      { Service.Scheduler.domains; queue_max = 64; store = Some store; task_cache_max = 32;
        result_cache_max = 256; chaos = None }
  in
  let stop = Atomic.make false in
  let ready_m = Mutex.create () and ready_c = Condition.create () and ready = ref false in
  let server =
    Thread.create
      (fun () ->
        Service.Server.run
          { Service.Server.socket_path = socket; scheduler; stop; max_conns = None;
            read_timeout_s = None; chaos = None;
            on_ready =
              (fun () ->
                Mutex.lock ready_m;
                ready := true;
                Condition.signal ready_c;
                Mutex.unlock ready_m) })
      ()
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join server;
      rm store_dir)
    (fun () ->
      (* The 64-set geometry: heavy enough cold (CFG recovery, cache
         analysis, per-set FMM fan-out) that the warm path's value
         shows; warm cost is geometry-independent. *)
      let benches = [ "fibcall"; "crc"; "cnt"; "adpcm" ] in
      let reqs =
        List.concat_map
          (fun bench ->
            List.map
              (fun mechanism ->
                { (Service.Protocol.default_analyze ~bench) with mechanism; sets = 64 })
              Pwcet.Mechanism.all)
          benches
      in
      (* Sequential passes over the request list, each latency measured
         individually; any non-Result response is a bench failure. Cold
         is one pass by nature (a request is only ever cold once); warm
         is per-request best-of-[reps], the harness's usual steady-state
         convention, so one scheduler hiccup can't smear the
         percentiles. *)
      let sweep ?(reps = 1) label =
        let n = List.length reqs in
        let best = Array.make n infinity in
        for _ = 1 to reps do
          List.iteri
            (fun i a ->
              let t0 = Robust.Budget.now () in
              (match Service.Client.request ~socket (Service.Protocol.Analyze a) with
              | Ok (Service.Protocol.Result _) -> ()
              | Ok _ -> failwith (Printf.sprintf "service-json: unexpected %s response" label)
              | Error msg ->
                failwith (Printf.sprintf "service-json: %s request failed: %s" label msg));
              let dt = Robust.Budget.now () -. t0 in
              if dt < best.(i) then best.(i) <- dt)
            reqs
        done;
        let sorted = Array.copy best in
        Array.sort compare sorted;
        let ms p = 1000.0 *. Service.Client.percentile sorted p in
        (ms 0.50, ms 0.95, ms 0.99)
      in
      let cold_p50, cold_p95, cold_p99 = sweep "cold" in
      let warm_p50, warm_p95, warm_p99 = sweep ~reps:3 "warm" in
      let speedup_p95 = cold_p95 /. warm_p95 in
      Printf.printf "  cold sweep (%d requests) : p50 %8.2f ms  p95 %8.2f ms  p99 %8.2f ms\n"
        (List.length reqs) cold_p50 cold_p95 cold_p99;
      Printf.printf "  warm sweep (%d requests) : p50 %8.2f ms  p95 %8.2f ms  p99 %8.2f ms\n"
        (List.length reqs) warm_p50 warm_p95 warm_p99;
      Printf.printf "  warm vs cold p95         : %.1fx\n" speedup_p95;
      (* Concurrent warm phase: every key already cached, so this
         measures the socket + scheduler path under parallel load. *)
      let clients = 4 and per_client = 2 * List.length reqs in
      let conc = Service.Client.load ~socket ~clients ~requests:per_client reqs in
      if conc.Service.Client.errors > 0 then failwith "service-json: concurrent phase had errors";
      Printf.printf "  concurrent warm (%d x %d) : %.0f req/s  p50 %.2f ms  p95 %.2f ms\n"
        clients per_client conc.Service.Client.throughput conc.Service.Client.p50_ms
        conc.Service.Client.p95_ms;
      (* Dedup guarantee, live: K identical concurrent requests on a
         fresh key (distinct pfail so no cache can answer), exactly one
         computation. delay_ms holds the leader open long enough for
         every joiner to arrive. *)
      let before = Service.Scheduler.stats scheduler in
      let dedup_req =
        { (Service.Protocol.default_analyze ~bench:"adpcm") with pfail = 3.25e-5; delay_ms = 300 }
      in
      let k = 8 in
      let dedup = Service.Client.load ~socket ~clients:k ~requests:1 [ dedup_req ] in
      let after = Service.Scheduler.stats scheduler in
      let dedup_computations = after.Service.Protocol.computations - before.Service.Protocol.computations in
      let dedup_joined = after.Service.Protocol.deduped - before.Service.Protocol.deduped in
      Printf.printf "  dedup: %d identical concurrent -> %d computation(s), %d joined\n" k
        dedup_computations dedup_joined;
      if dedup_computations <> 1 || dedup.Service.Client.errors > 0 then
        failwith "service-json: dedup guarantee violated";
      let hits, misses, puts =
        match after.Service.Protocol.store with Some s -> s | None -> (0, 0, 0)
      in
      let oc = open_out "BENCH_service.json" in
      Printf.fprintf oc
        "{\n\
        \  \"schema_version\": 1,\n\
        \  \"git_commit\": %S,\n\
        \  \"runs\": \"cold single pass, warm best of 3 per request\",\n\
        \  \"benchmarks\": [\"fibcall\", \"crc\", \"cnt\", \"adpcm\"],\n\
        \  \"mechanisms\": [\"none\", \"srb\", \"rw\"],\n\
        \  \"geometry\": { \"sets\": 64, \"ways\": 4, \"line_bytes\": 16 },\n\
        \  \"domains\": %d,\n\
        \  \"requests_per_sweep\": %d,\n\
        \  \"cold_p50_ms\": %.3f,\n\
        \  \"cold_p95_ms\": %.3f,\n\
        \  \"cold_p99_ms\": %.3f,\n\
        \  \"warm_p50_ms\": %.3f,\n\
        \  \"warm_p95_ms\": %.3f,\n\
        \  \"warm_p99_ms\": %.3f,\n\
        \  \"speedup_warm_vs_cold_p95\": %.3f,\n\
        \  \"concurrent_clients\": %d,\n\
        \  \"concurrent_requests\": %d,\n\
        \  \"concurrent_throughput_rps\": %.1f,\n\
        \  \"concurrent_p50_ms\": %.3f,\n\
        \  \"concurrent_p95_ms\": %.3f,\n\
        \  \"concurrent_p99_ms\": %.3f,\n\
        \  \"dedup_clients\": %d,\n\
        \  \"dedup_computations\": %d,\n\
        \  \"dedup_joined\": %d,\n\
        \  \"store_hits\": %d,\n\
        \  \"store_misses\": %d,\n\
        \  \"store_puts\": %d\n\
         }\n"
        (git_commit ()) domains (List.length reqs) cold_p50 cold_p95 cold_p99 warm_p50 warm_p95
        warm_p99 speedup_p95 clients (clients * per_client) conc.Service.Client.throughput
        conc.Service.Client.p50_ms conc.Service.Client.p95_ms conc.Service.Client.p99_ms k
        dedup_computations dedup_joined hits misses puts;
      close_out oc;
      Printf.printf "  wrote BENCH_service.json\n")

(* --- Sched campaign: batched law reuse vs independent analysis ------------------ *)

(* The schedulability campaign's value proposition, quantified: a
   campaign computes each distinct benchmark's pWCET law exactly once
   and reuses it across every task set (batched), while the obvious
   baseline re-derives the laws each set needs from the warm artifact
   store, set by set (independent). Both paths read the same warm
   store, and the campaign digests are asserted bit-identical before
   any timing is reported — batching must buy time, never change
   verdicts. Acceptance: batched >= 5x faster than independent. *)
let section_sched_json () =
  banner "Sched campaign batched vs independent -> BENCH_sched.json";
  let module SC = Sched.Campaign in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun name -> rm (Filename.concat path name)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pwcet_bench_sched.%d" (Unix.getpid ()))
  in
  let spec =
    match
      SC.make ~count:40 ~n_tasks:3 ~utilisation:0.6 ~seed:42
        ~benchmarks:[ "nsichneu"; "fft"; "statemate"; "edn"; "adpcm" ]
        ~sets:64 ~ways:4 ~k_max:1 ~max_points:64 ()
    with
    | Ok spec -> spec
    | Error msg -> failwith ("sched-json: bad spec: " ^ msg)
  in
  rm dir;
  (* Populate the store once (untimed): both measured paths then run
     against the identical warm cache. *)
  ignore (SC.laws ~store:(Store.Artifact.open_store ~dir ()) spec);
  let time ?(reps = 3) f =
    let result = f () in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    (result, !best)
  in
  let batched, batched_s =
    time (fun () ->
        let store = Store.Artifact.open_store ~dir () in
        let laws = SC.laws ~store spec in
        (SC.run_with_laws spec laws).SC.results)
  in
  let independent, independent_s =
    time (fun () ->
        let store = Store.Artifact.open_store ~dir () in
        List.init spec.SC.count (fun index ->
            let ts = Sched.Taskset.generate (SC.taskset_spec spec) ~index in
            let benches =
              List.fold_left
                (fun acc (t : Sched.Taskset.task) ->
                  if List.mem t.bench acc then acc else acc @ [ t.bench ])
                [] ts.Sched.Taskset.tasks
            in
            let laws = SC.laws ~store { spec with SC.benchmarks = benches } in
            fst (SC.analyze_set spec laws ~index)))
  in
  let batched_digest = SC.digest_of_results batched in
  let independent_digest = SC.digest_of_results independent in
  rm dir;
  if batched_digest <> independent_digest then
    failwith "sched-json: batched and independent campaign digests differ";
  let speedup = independent_s /. batched_s in
  Printf.printf "  independent : %8.3f s   (laws re-derived per task set)\n" independent_s;
  Printf.printf "  batched     : %8.3f s   (laws computed once; %.2fx)\n" batched_s speedup;
  Printf.printf "  digests identical: %b  (%s)\n" true batched_digest;
  if speedup < 5.0 then
    failwith (Printf.sprintf "sched-json: speedup %.2fx below the 5x acceptance floor" speedup);
  let oc = open_out "BENCH_sched.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"git_commit\": %S,\n\
    \  \"runs\": \"best of 3\",\n\
    \  \"task_sets\": %d,\n\
    \  \"tasks_per_set\": %d,\n\
    \  \"utilisation\": %.3f,\n\
    \  \"benchmarks\": [%s],\n\
    \  \"geometry\": { \"sets\": %d, \"ways\": %d, \"line_bytes\": %d },\n\
    \  \"policy\": \"rm\",\n\
    \  \"k_max\": %d,\n\
    \  \"max_points\": %d,\n\
    \  \"independent_s\": %.6f,\n\
    \  \"batched_s\": %.6f,\n\
    \  \"speedup_batched_vs_independent\": %.3f,\n\
    \  \"digest\": %S,\n\
    \  \"digests_identical\": true\n\
     }\n"
    (git_commit ()) spec.SC.count spec.SC.n_tasks spec.SC.utilisation
    (String.concat ", " (List.map (Printf.sprintf "%S") spec.SC.benchmarks))
    spec.SC.sets spec.SC.ways spec.SC.line spec.SC.k_max spec.SC.max_points independent_s
    batched_s speedup batched_digest;
  close_out oc;
  Printf.printf "  wrote BENCH_sched.json\n"

(* --- Bechamel timing ------------------------------------------------------------ *)

(* --- grid-json --------------------------------------------------------------- *)

(* The cross-configuration grid engine's claim, quantified: one pass
   over mechanism x geometry x pfail shares the per-(program, geometry)
   analysis context, CHMC fixpoints, fault-free WCET and the
   mechanism-independent FMM row prefixes, so the whole matrix costs a
   little more than one full analysis per geometry instead of one per
   cell. Run single-threaded on purpose — the container is one core,
   so the reported speedup is pure structural sharing, not
   parallelism. Every cell is asserted bit-identical to an independent
   end-to-end estimate and the matrix digest identical for jobs 1/2/4
   before any timing is reported (acceptance: >= 5x on the 3-mechanism
   x 2-geometry x 8-pfail grid). *)
let section_grid_json () =
  banner "One-pass grid vs independent per-cell estimates -> BENCH_grid.json";
  let bench = "adpcm" in
  let entry = Option.get (Benchmarks.Registry.find bench) in
  let program = (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program in
  let geometries = [ (16, 4, 16); (64, 4, 16) ] in
  let configs =
    List.map (fun (sets, ways, line) -> Cache.Config.make ~sets ~ways ~line_bytes:line ()) geometries
  in
  let pfails = [ 1e-8; 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1 ] in
  let grid_target = 1e-15 in
  let spec =
    { Grid.benchmarks = [ (bench, program) ];
      configs;
      mechanisms = Pwcet.Mechanism.all;
      pfail_grid = pfails;
      targets = [ grid_target ];
      engine = `Path;
      exact = false;
      impl = `Sliced }
  in
  (* Best of three runs, after one warm-up that also yields the data. *)
  let time f =
    let result = f () in
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    (result, !best)
  in
  let one_pass, one_pass_s = time (fun () -> Grid.run ~jobs:1 spec) in
  let digest = Grid.digest one_pass in
  List.iter
    (fun jobs ->
      if Grid.digest (Grid.run ~jobs spec) <> digest then
        failwith (Printf.sprintf "grid-json: jobs=%d digest differs from jobs=1" jobs))
    [ 2; 4 ];
  (* The baseline the grid replaces: every cell prepared and estimated
     from scratch, exactly what N independent analyze runs would do. *)
  let independents, independent_s =
    time (fun () ->
        List.map
          (fun (point : Grid.point) ->
            let task = Pwcet.Estimator.prepare ~program ~config:point.Grid.config () in
            ( point,
              task,
              Pwcet.Estimator.estimate task ~pfail:point.Grid.pfail
                ~mechanism:point.Grid.mechanism ~jobs:1 () ))
          (Grid.points spec))
  in
  List.iter2
    (fun (point, outcome) (point', task, est) ->
      if Grid.point_key point <> Grid.point_key point' then
        failwith "grid-json: grid and independent cell orders diverge";
      match outcome with
      | Error e ->
        failwith
          (Printf.sprintf "grid-json: cell %s failed: %s" (Grid.point_key point)
             (Robust.Pwcet_error.to_string e))
      | Ok cell ->
        let same =
          cell.Grid.wcet_ff = Pwcet.Estimator.fault_free_wcet task
          && cell.Grid.pbf = est.Pwcet.Estimator.pbf
          && List.for_all
               (fun (t, q) -> Pwcet.Estimator.pwcet est ~target:t = q)
               cell.Grid.pwcets
          && Robust.Rung.equal cell.Grid.rung (Pwcet.Estimator.worst_rung est)
        in
        if not same then
          failwith
            (Printf.sprintf "grid-json: cell %s differs from its independent estimate"
               (Grid.point_key point)))
    one_pass independents;
  let cells = List.length one_pass in
  let speedup = independent_s /. one_pass_s in
  Printf.printf "  cells                : %d (%s x %d geometries x %d mechanisms x %d pfails)\n"
    cells bench (List.length configs)
    (List.length spec.Grid.mechanisms)
    (List.length pfails);
  Printf.printf "  one-pass  jobs=1     : %8.3f s\n" one_pass_s;
  Printf.printf "  independent per-cell : %8.3f s\n" independent_s;
  Printf.printf "  speedup              : %.2fx\n" speedup;
  Printf.printf "  digest (jobs 1=2=4)  : %s\n" digest;
  Printf.printf "  cells identical to independent estimates: true\n";
  if speedup < 5.0 then
    failwith
      (Printf.sprintf "grid-json: one-pass speedup %.2fx is below the 5x acceptance floor"
         speedup);
  let oc = open_out "BENCH_grid.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"git_commit\": %S,\n\
    \  \"benchmark\": %S,\n\
    \  \"geometries\": [%s],\n\
    \  \"mechanisms\": [%s],\n\
    \  \"pfail_points\": %d,\n\
    \  \"target\": %.17g,\n\
    \  \"cells\": %d,\n\
    \  \"runs\": \"best of 3\",\n\
    \  \"one_pass_jobs1_s\": %.6f,\n\
    \  \"independent_per_cell_s\": %.6f,\n\
    \  \"speedup_one_pass_vs_independent\": %.3f,\n\
    \  \"cells_identical\": true,\n\
    \  \"jobs_digests_identical\": true,\n\
    \  \"digest\": %S\n\
     }\n"
    (git_commit ()) bench
    (String.concat ", "
       (List.map
          (fun (sets, ways, line) ->
            Printf.sprintf "{ \"sets\": %d, \"ways\": %d, \"line_bytes\": %d }" sets ways line)
          geometries))
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S" (Pwcet.Mechanism.short_name m))
          spec.Grid.mechanisms))
    (List.length pfails) grid_target cells one_pass_s independent_s speedup digest;
  close_out oc;
  Printf.printf "  wrote BENCH_grid.json\n"

(* --- sim-json ---------------------------------------------------------------- *)

(* The fault-injection emulator's evaluation artifact: the
   batched-vs-baseline speedup on adpcm over the 64-set geometry
   (acceptance: >= 10x, with per-sample cycle identity against the
   concrete Isa.Machine + cache-simulator baseline and replay/emulate
   digest identity), then million-sample campaigns for six registry
   benchmarks under all three mechanisms on the paper geometry, each
   held against the analytic pWCET curve. Everything is written to
   BENCH_sim.json by the same emitter the CLI uses. *)
let section_sim_json () =
  banner "Batched fault-injection campaigns + speedup -> BENCH_sim.json";
  let campaign_samples = 1_000_000 in
  let seed = 42 in
  let benches = [ "adpcm"; "bs"; "crc"; "fibcall"; "insertsort"; "matmult" ] in
  let compiled_of name =
    let entry = Option.get (Benchmarks.Registry.find name) in
    Minic.Compile.compile entry.Benchmarks.Registry.program
  in
  (* Speedup on the wide geometry, where the baseline's per-sample
     simulator construction hurts the most. *)
  let wide_config = Cache.Config.make ~sets:64 ~ways:4 ~line_bytes:16 () in
  let adpcm = compiled_of "adpcm" in
  let wide_task =
    Pwcet.Estimator.prepare ~program:adpcm.Minic.Compile.program ~config:wide_config ()
  in
  let wide_est =
    Pwcet.Estimator.estimate wide_task ~pfail ~mechanism:Pwcet.Mechanism.No_protection ~jobs ()
  in
  let sp =
    Pwcet.Validate.measure_speedup ~program:adpcm.Minic.Compile.program
      ~data:adpcm.Minic.Compile.data ~est:wide_est ~benchmark:"adpcm" ~samples:500 ()
  in
  Printf.printf "speedup (adpcm, 64 sets, %d samples):\n" sp.Pwcet.Validate.sp_samples;
  Printf.printf "  baseline: %10.0f samples/s\n" sp.Pwcet.Validate.baseline_samples_per_sec;
  Printf.printf "  batched : %10.0f samples/s (incl. one-time trace preparation)\n"
    sp.Pwcet.Validate.batched_samples_per_sec;
  Printf.printf "  factor  : %.1fx  (cycles identical: %b, engines identical: %b)\n\n"
    sp.Pwcet.Validate.factor sp.Pwcet.Validate.cycles_identical
    sp.Pwcet.Validate.engines_identical;
  let rows = ref [] in
  List.iter
    (fun name ->
      let compiled = compiled_of name in
      let program = compiled.Minic.Compile.program in
      let data = compiled.Minic.Compile.data in
      let task = Pwcet.Estimator.prepare ~program ~config () in
      List.iter
        (fun mechanism ->
          let est = Pwcet.Estimator.estimate task ~pfail ~mechanism ~jobs () in
          let c =
            Pwcet.Validate.check ~program ~data ~est ~samples:campaign_samples ~seed ~jobs ()
          in
          Printf.printf "  %-12s %-4s %9d samples %10.0f/s  gap %+.3e  %s\n" name
            (Pwcet.Mechanism.short_name mechanism)
            c.Pwcet.Validate.samples c.Pwcet.Validate.samples_per_sec c.Pwcet.Validate.max_gap
            (if Pwcet.Validate.ok c then "ok" else "VIOLATION");
          rows := (name, c) :: !rows)
        Pwcet.Mechanism.all)
    benches;
  Pwcet.Validate.write_json ~path:"BENCH_sim.json" ~git_commit:(git_commit ()) ~config ~pfail
    ~speedup:(Some sp) ~rows:(List.rev !rows);
  Printf.printf "  wrote BENCH_sim.json\n"

let section_bechamel () =
  banner "Analysis performance (Bechamel, one test per pipeline stage / figure)";
  let open Bechamel in
  let adpcm = task_of "adpcm" in
  let crc = task_of "crc" in
  let graph = adpcm.Pwcet.Estimator.graph and loops = adpcm.Pwcet.Estimator.loops in
  let crc_entry = Option.get (Benchmarks.Registry.find "crc") in
  let crc_compiled = Minic.Compile.compile crc_entry.Benchmarks.Registry.program in
  (* FMM scaling: the per-set fan-out on a large geometry (64 sets),
     sequential vs the -j domain count. Tables are bit-identical; only
     wall-clock may differ. *)
  let wide_config = Cache.Config.make ~sets:64 ~ways:4 ~line_bytes:16 () in
  let fmm_test ?(impl = `Sliced) n =
    let impl_name = match impl with `Naive -> "naive" | `Sliced -> "sliced" in
    Test.make
      ~name:(Printf.sprintf "fmm(adpcm,64 sets,%s,jobs=%d)" impl_name n)
      (Staged.stage (fun () ->
           ignore
             (Pwcet.Fmm.compute ~graph ~loops ~config:wide_config
                ~mechanism:Pwcet.Mechanism.No_protection ~jobs:n ~impl ())))
  in
  let n_jobs = if jobs > 1 then jobs else 2 in
  let tests =
    [ fmm_test ~impl:`Naive 1
    ; fmm_test 1
    ; fmm_test n_jobs
    ; Test.make ~name:"cache-analysis(adpcm)"
        (Staged.stage (fun () ->
             ignore (Cache_analysis.Chmc.analyze ~graph ~loops ~config ())))
    ; Test.make ~name:"wcet-path-engine(adpcm)"
        (Staged.stage (fun () ->
             ignore
               (Ipet.Wcet.compute ~graph ~loops ~chmc:adpcm.Pwcet.Estimator.chmc ~config
                  ~engine:`Path ())))
    ; Test.make ~name:"wcet-ilp-engine(crc)"
        (Staged.stage (fun () ->
             ignore
               (Ipet.Wcet.compute ~graph:crc.Pwcet.Estimator.graph
                  ~loops:crc.Pwcet.Estimator.loops ~chmc:crc.Pwcet.Estimator.chmc ~config
                  ~engine:`Ilp ())))
    ; Test.make ~name:"fig3-estimate(adpcm,none)"
        (Staged.stage (fun () ->
             ignore
               (Pwcet.Estimator.estimate adpcm ~pfail ~mechanism:Pwcet.Mechanism.No_protection
                  ())))
    ; Test.make ~name:"fig3-estimate(adpcm,srb)"
        (Staged.stage (fun () ->
             ignore
               (Pwcet.Estimator.estimate adpcm ~pfail
                  ~mechanism:Pwcet.Mechanism.Shared_reliable_buffer ())))
    ; Test.make ~name:"fig3-estimate(adpcm,rw)"
        (Staged.stage (fun () ->
             ignore
               (Pwcet.Estimator.estimate adpcm ~pfail ~mechanism:Pwcet.Mechanism.Reliable_way
                  ())))
    ; Test.make ~name:"fig4-row(crc,3 mechanisms)"
        (Staged.stage (fun () ->
             List.iter
               (fun mechanism ->
                 ignore
                   (Pwcet.Estimator.pwcet
                      (Pwcet.Estimator.estimate crc ~pfail ~mechanism ())
                      ~target))
               Pwcet.Mechanism.all))
    ; Test.make ~name:"eq1-3-fault-model"
        (Staged.stage (fun () ->
             let pbf = Fault.Model.pbf_of_config ~pfail config in
             ignore (Fault.Model.way_distribution ~ways:4 ~pbf);
             ignore (Fault.Model.way_distribution_rw ~ways:4 ~pbf)))
    ; Test.make ~name:"penalty-convolution(16 sets)"
        (Staged.stage
           (let est =
              Pwcet.Estimator.estimate adpcm ~pfail ~mechanism:Pwcet.Mechanism.No_protection ()
            in
            let fmm = est.Pwcet.Estimator.fmm in
            let pbf = est.Pwcet.Estimator.pbf in
            fun () -> ignore (Pwcet.Penalty.total_distribution ~fmm ~pbf ())))
    ; Test.make ~name:"simulator(crc,faulty-cache)"
        (Staged.stage
           (let fm = Cache.Fault_map.of_faulty_counts config (Array.make 16 2) in
            fun () ->
              let sim = Cache.Lru.create ~fault_map:fm config in
              ignore (Minic.Compile.run ~fetch:(Cache.Lru.latency_oracle sim) crc_compiled)))
    ]
  in
  let grouped = Test.make_grouped ~name:"pwcet" tests in
  let cfg_bench = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg_bench Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] |> List.sort compare in
  Printf.printf "%-40s %15s %10s\n" "stage" "time/run" "r^2";
  List.iter
    (fun name ->
      let r = Hashtbl.find results name in
      let time_ns =
        match Analyze.OLS.estimates r with Some (t :: _) -> t | _ -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square r) in
      let pretty =
        if time_ns >= 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
        else if time_ns >= 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
        else if time_ns >= 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
        else Printf.sprintf "%.0f ns" time_ns
      in
      Printf.printf "%-40s %15s %10.4f\n" name pretty r2)
    names

let () =
  if wanted "equations" then section_equations ();
  if wanted "figure1" then section_figure1 ();
  if wanted "figure3" then section_figure3 ();
  if wanted "figure4" then begin
    let rows = suite_rows () in
    section_figure4 rows;
    section_aggregates rows
  end;
  if wanted "geometry" then section_geometry ();
  if wanted "ablations" then section_ablations ();
  if wanted "future-work" then section_future_work ();
  if wanted "data-cache" then section_data_cache ();
  if wanted "fmm-json" then section_fmm_json ();
  if wanted "dist-json" then section_dist_json ();
  if wanted "store-json" then section_store_json ();
  if wanted "service-json" then section_service_json ();
  if wanted "sched-json" then section_sched_json ();
  if wanted "sim-json" then section_sim_json ();
  if wanted "grid-json" then section_grid_json ();
  if wanted "bechamel" then section_bechamel ();
  Printf.printf "\ndone.\n"
